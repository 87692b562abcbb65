"""All fifteen selection schemes answering the same query.

Shows the shared machinery (region of competence, output profiles) and how
each scheme turns per-classifier competence into a sub-ensemble and a label.
"""

import numpy as np

from desbal import (
    SELECTOR_NAMES,
    SelectionContext,
    SelectorConfig,
    build_dsel,
    generate_pool,
    run_selector,
    select_desknn,
    select_fire,
    select_knu,
    train_meta_classifier,
)
from desbal.benchmarks import load_benchmark
from desbal.data import standardize, stratified_5x2

glass = load_benchmark("glass")
plan = stratified_5x2(glass, seed=5)
_, _, train_idx, test_idx = next(iter(plan.folds()))
train, test = glass.subset(train_idx), glass.subset(test_idx)
train_s, (test_s,), _ = standardize(train, [test])

pool = generate_pool(train_s, "Ba-RM", pool_size=100, seed=21)
dsel = build_dsel(train_s, "Ba-RM", seed=21)
ctx = SelectionContext(pool, dsel)
ctx.meta = train_meta_classifier(ctx, train_s, k=7, kp=5)

# pick a minority-class test point: exactly where dynamic selection matters
minority_class = int(np.argmin(np.bincount(train_s.labels, minlength=glass.n_classes)))
query_idx = int(np.flatnonzero(test_s.labels == minority_class)[0])
x_q = test_s.features[query_idx]
truth = test_s.labels[query_idx]

# the query's region of competence is its k nearest DSEL rows, with the
# pool's behaviour on each
query = ctx.make_queries(x_q, 7)[0]
print(f"query: a class-{truth} test point")
print(f"region of competence: DSEL rows {query.indices.tolist()}")
distances = np.linalg.norm(dsel.features[query.indices] - x_q, axis=1)
print(f"  distances {np.round(distances, 3).tolist()}")
print(f"  neighbour labels {dsel.labels[query.indices].tolist()}")

u_q = query.predictions
print(f"\noutput profile of the query (first 12 of {len(u_q)} classifiers): "
      f"{u_q[:12].tolist()}")
# agrees[i, j]: classifier i labels neighbour j as it labels the query
print(f"similarity to its nearest neighbour's profile: "
      f"{query.agrees[:, 0].mean():.2f}")

cfg = SelectorConfig(k=7, seed=99)
print(f"\n{'scheme':<11}{'|EoC|':>6}  {'label':>5}  ok")
for name in SELECTOR_NAMES:
    result = run_selector(name, ctx, query, cfg)
    ok = "yes" if result.predicted_class == truth else "no"
    print(f"{name:<11}{len(result.selected):>6}  {result.predicted_class:>5}  {ok}")

# the schemes' own sizes and thresholds are keyword arguments of functions
# of the query
for n, j in ((50, 30), (20, 5)):
    result = select_desknn(query, n=n, j=j)
    print(f"DES-KNN N={n} J={j}: |EoC| {len(result.selected)}, "
          f"label {result.predicted_class}")
pruned = select_fire(select_knu, query)
print(f"FIRE around KNU: |EoC| {len(pruned.selected)}, label {pruned.predicted_class}")

print("\nDCS schemes (RANK, LCA, MCB) pick one specialist; DES schemes keep a")
print("sub-ensemble; the FIRE wrapper first drops classifiers that never cross")
print("the local class border")
