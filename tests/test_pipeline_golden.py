"""Golden digests of the pipeline, from the bootstrap to the results records.

Replication 1 (both folds) of builtin glass and ecoli runs through `_plan`
and `evaluate_cell` with every variant, selector and metric at pool 5, and
the records, formatted as the results writer formats them, must hash to the
recorded digests. For glass replication 1 fold B each variant's stages are
pinned in pipeline order as well, so a failure names the first stage that
moved. Ecoli keeps its one-row classes and its incomplete bootstraps in the
grid.

The digests depend on numpy's Generator streams and on the last bits of the
platform's float math. A change that moves them on purpose records them
again and says why.
"""

import hashlib
import math

import numpy as np
import pytest
import scipy

from desbal.experiment import RunConfig, _plan, evaluate_cell, resolve_dataset
from desbal.metrics import METRIC_NAMES
from desbal.pool import BOOTSTRAP_FRACTION, _bootstrap, build_dsel, generate_pool
from desbal.resampling import VARIANTS, apply_multiclass
from desbal.rng import derive_seed, make_rng
from desbal.selection import (
    SELECTOR_NAMES, SelectionContext, SelectorConfig, run_selector, train_meta_classifier,
)
from desbal.tree import TreeConfig

CFG = RunConfig(datasets=("builtin:glass", "builtin:ecoli"), output="", pool_size=5,
                seed=20240601)
STAGES = ("bootstrap", "resampled", "trees", "dsel", "queries", *SELECTOR_NAMES)

RECORD_DIGESTS = {
    ("glass", "A"):
        "f7bac7750e01eae2f6bdf60e6869d9633d841280108ce0770d676834b910ba53",
    ("glass", "B"):
        "3188f1fafca732a8f1f6b18db23357e4aa65456cf05cd240ad9e679a3849760d",
    ("ecoli", "A"):
        "06fe1292a841506be380064933575b75c07b1f13818f8ef5b857f78b40104b11",
    ("ecoli", "B"):
        "536d0b4432f61bd4ff9d900fe6cdc8473ba978b57fb9ee05bd1977e6d566a055",
}

STAGE_DIGESTS = {
    ("Ba", "bootstrap"):
        "04e1ddc6b5e04f9b5783a0c8e534a28cd3f9934b4df796049b6fb59e2d41e82d",
    ("Ba", "resampled"):
        "d9fdc71f7fddaf9614841cdda392b84a83b4704d2214a1d4016822f10487fc92",
    ("Ba", "trees"):
        "b252f983c902fd2a5a088f6f34cedf2084fbff2c48ffa7ad9a89a1ebf6f84ee3",
    ("Ba", "dsel"):
        "40c9c792bbd0d33c20a46a8040e8f226ffc32e9d38cbb71239913d0dbfabff54",
    ("Ba", "queries"):
        "cc7901d2dc3ad488d6fbd4a79a89b78409368fc5abc652ba23c31ac2f57a6704",
    ("Ba", "STATIC"):
        "4cf532cec1810c80ae91ab0abf244b83bb646d966682448d0e8ef7b2ff17bd49",
    ("Ba", "RANK"):
        "db47b847975cf8132a9f94a9b2bd341da514b13b0de870c914632b6cb6997ff9",
    ("Ba", "LCA"):
        "bedf40ac681ef5b92924a3d6a88608a52f66af88d732351bae92c658ae91ce74",
    ("Ba", "MCB"):
        "42de4aaa878b1fa97383dc70b7f432c5f4c82364cae82095a9e4de653175f4eb",
    ("Ba", "KNE"):
        "d1cef43e331194588f6e01fd02a578126c8fd7f67f02e51329b4f7149f7f5f8f",
    ("Ba", "KNU"):
        "1f5aaf17455b9253c4f7153eec7e26088d3180b27fba18f7272feb04d9561a4b",
    ("Ba", "DES-KNN"):
        "9bea6924f23a3fb51b9af2166e164765a81328c85d36f0bebffdd8f62d21bce8",
    ("Ba", "DESP"):
        "7dc31e1aa1ee9c82cfcdc2bd13dc77883b01f66018bb2c822bc40ca58bfd0152",
    ("Ba", "DES-RRC"):
        "6ae747e35717de3486a010d12cce7fdfb3d581271984de8ec7a596c4547abbb8",
    ("Ba", "META-DES"):
        "6976697eeb36fa8454eec28582808486371a99cb5b500b3a4605f899786ade8e",
    ("Ba", "F-LCA"):
        "8fc0e2fbaec4352db0db5d40eb37e679425ccd76291953cfbd229bbfb1e4c724",
    ("Ba", "F-MCB"):
        "3c52ee34df349700fb4994c20eb6b0e009a86c6500b53e2e9af2188103fa9479",
    ("Ba", "F-KNE"):
        "dbe1a8cf828fc778cf35e1c19c542ad8033c60293820ffa9961146635c17683c",
    ("Ba", "F-KNU"):
        "a50c48ed8987d219d2a4b04b8e8d86c8cf5632867fa093e5d684e0cece9fca2b",
    ("Ba", "F-DES-KNN"):
        "479221236347b4b2cfa63571ff3a4b73120fd1776975b9ecf2acfd0021baf34c",
    ("Ba-RM100", "bootstrap"):
        "d44f563813e17c24679a91299132fd4b38dd40a87d8627f63cd469e6d6be5c46",
    ("Ba-RM100", "resampled"):
        "952ed12fb04323f17153f9db9a406ef3bd63911f34dd13ee466c0ec662975048",
    ("Ba-RM100", "trees"):
        "6ef3d8526f6555f5dd81cecd6a7f9c6a275bac4822e6918715b2d465e866f936",
    ("Ba-RM100", "dsel"):
        "be80e9df55ca753988cbdc6b0af24002fb05962b13760a11b171100d498ceab5",
    ("Ba-RM100", "queries"):
        "9ed49b30b0798ff1ed7aac4e45e108da0e77e35160f2663dbb91c6c8b0d006de",
    ("Ba-RM100", "STATIC"):
        "3d51f1502186f8238538ae717fd6099c772ce27a6e9e49d4db5dea85364fe489",
    ("Ba-RM100", "RANK"):
        "436bb147bab4dbf00620a2a7669ee6b8b07e78c223e2f44fd393ca032c1a6204",
    ("Ba-RM100", "LCA"):
        "17f19b58863d1410fea74f0d28eb335a190a78bec0d4cd11153f9d46a88e202c",
    ("Ba-RM100", "MCB"):
        "f59321c02815380f98e4e77b5cc736bb4ee49699bdb3373cdf16f09f306226c0",
    ("Ba-RM100", "KNE"):
        "6ce9de243bc4d4f3ec7f7c7a2a5c590ca09b77f6d04134f7e7ab895e6f6bdd4f",
    ("Ba-RM100", "KNU"):
        "2d2302284891821be4582f0b273244e582aa49a51c370b018e54eb356e4c9de1",
    ("Ba-RM100", "DES-KNN"):
        "4fb414d9adf68f8d086e1d5b0925f689f69dd998672874871402ba29aabba825",
    ("Ba-RM100", "DESP"):
        "384cb21fd531ce0d29fdaa502bfc889b0f40f21836165d6ff4be6dc7eb98c603",
    ("Ba-RM100", "DES-RRC"):
        "37567c4d52bb8e06933956acc54a1ab6241319c35631677a8df44829fb5557b7",
    ("Ba-RM100", "META-DES"):
        "76b393dcc7d7f1e28ed1f604f5dfefdda2a0d04effc12d87351561e57c79100f",
    ("Ba-RM100", "F-LCA"):
        "52b10022b55e90cee50b3911dcc76acc00ebadb3c792da9d2052d5e3d85b40b4",
    ("Ba-RM100", "F-MCB"):
        "050f0f22d7e2152eaf88fe282adb90f6272ae1b7ce4a387a206addd27c9f2e3a",
    ("Ba-RM100", "F-KNE"):
        "68cd55f7e9255aac5b5b334d9eb9d712c63ff926c0cf2189c5690ae576894a8b",
    ("Ba-RM100", "F-KNU"):
        "df0f96ce12147e5ac0cb9df840ba95114414512ad59caec71b45a5458d4c9833",
    ("Ba-RM100", "F-DES-KNN"):
        "b81c8db9595d5038e7bef349b3022ea85e42f841f0b8d168d7f7835c3ec92b02",
    ("Ba-RM", "bootstrap"):
        "de1f59e7ffd704e7a008381b2618b438c81021d1d4f5a8e4c0da1294fe16c9c4",
    ("Ba-RM", "resampled"):
        "8668310baca060ee8e3e94e6368de38957dd8a074ab60779be633d42021e1db6",
    ("Ba-RM", "trees"):
        "8e79214ca266cec49d57411e4c3c0f2a2132e74b1b44c3b2f296b70d101f8593",
    ("Ba-RM", "dsel"):
        "cce6b5c5167d30d22b77a74f94c0f48ef90922b0e879f26e58c89962637f8d06",
    ("Ba-RM", "queries"):
        "842a3bc9e3a58871cdee201f9260ae2b468c4a844c29d8fac7f442913870962e",
    ("Ba-RM", "STATIC"):
        "80b6e07d5de614665dac89b9fded2a68acc5e9866e62d8356bfcce70b24655eb",
    ("Ba-RM", "RANK"):
        "d832ad7226153c5450e28230f51e72f7fcb36618235be698c8e445ef5e380a65",
    ("Ba-RM", "LCA"):
        "10bd79e10f09b85a34c15753df510712c328773590e11122931e2f7a0d377470",
    ("Ba-RM", "MCB"):
        "3483eced17b51c66aac5284f4c442a5ce9150a53967c72cbb126e4f9ff9e40a4",
    ("Ba-RM", "KNE"):
        "3a5e752240354d5c44321b4fd7c82ab21f4358bc523da2909c393512a8e3b505",
    ("Ba-RM", "KNU"):
        "00597c092b74f2d214a79e4508c62c83fdae8b9ccd804cd5a8e0867f5b103556",
    ("Ba-RM", "DES-KNN"):
        "bf53e2dcbd930b1d9398fa16090f3e16d1e4949ce4059509ae89895a9f15f39b",
    ("Ba-RM", "DESP"):
        "ad85904ab87b48e16721f55e6dec82cbe530df7d211db85887ca02a23a9acbae",
    ("Ba-RM", "DES-RRC"):
        "f30e80265a3d927fee7675fc7700efa5f12c0196bf77f25fba71d25aaa114a9c",
    ("Ba-RM", "META-DES"):
        "54e946079f118a09b90bda5ed6f7c5d0876071bc1fdedc45e4e526fe026eb974",
    ("Ba-RM", "F-LCA"):
        "66d8877481a696b9fcbf172f74b571025f737f999a3a02fe8c87f1fe52e57d6d",
    ("Ba-RM", "F-MCB"):
        "e1283f8e3d9cf0bfa8c300663afc2476c4c64d4a148a81efdded21185890d8ec",
    ("Ba-RM", "F-KNE"):
        "48d0f097c856af41f9e80d30315318fe355e6ebc1fa07aee65563b516df68d95",
    ("Ba-RM", "F-KNU"):
        "abf2fa6ae8302ebf7b4fe3554b910fbe0c455feafd1e6470b72de501a9744636",
    ("Ba-RM", "F-DES-KNN"):
        "eccb601a220b53df0f4b744529d1ba5fb5e478e16ccee0eed8528514856e11a9",
    ("Ba-SM100", "bootstrap"):
        "9f84041c258639c66c168e81e81a4e6d5fade2729058f368225ecb4806b58ef0",
    ("Ba-SM100", "resampled"):
        "8faf956f703add9ccc891b9e93fa5a593376453f0fe0b5a3b4db5d39aae1c7df",
    ("Ba-SM100", "trees"):
        "ea81fbe109eb685740758194433956737dd2ea3c233fbfff9bffe1cd0c915567",
    ("Ba-SM100", "dsel"):
        "9baf6842a4110b15590c8c56531d7e27d87d3f1fa61ee3d5a35a842b334a6946",
    ("Ba-SM100", "queries"):
        "3d1cb03e5d87ad54258b3299e6a352125c2a23a6b67168b15e3c698d5b8155a3",
    ("Ba-SM100", "STATIC"):
        "6cb15b75fbf1cb67333072094fe930f95e5993c499b782b94e2446e3fdf99516",
    ("Ba-SM100", "RANK"):
        "de3d35df25078383e9deb15229d16aecb9c065f529e09040d6d8f538130379b8",
    ("Ba-SM100", "LCA"):
        "f71ae70f40a60aeaed5012a1bc2a22fe1e6c900e294784069470df2515f9dd6b",
    ("Ba-SM100", "MCB"):
        "c8f860012a6f8341d7cba7c46a923ba936085dc16311c44142f7a9b3643384fb",
    ("Ba-SM100", "KNE"):
        "b5d39b231f9353bbb32fafbcbfcf92a038c16692aeb7cfb1103db4bc40da618b",
    ("Ba-SM100", "KNU"):
        "6ab1b84dcf12e88f097bbae583723d82255b419014c9a6cc8007fc5c76ef1e26",
    ("Ba-SM100", "DES-KNN"):
        "0538660e19bdc1f2b5bea5b2e9c43bd39493d8983c3100b06242ee6a291456a9",
    ("Ba-SM100", "DESP"):
        "d2d1cc9984378e2c73ae3bcd9f66998d353fb8a6ee9a626cbaea145e78533c16",
    ("Ba-SM100", "DES-RRC"):
        "1c00548a6e328731a8a8fd7e560c8c31930ca1d6efaf7a14de5ce4293cac873f",
    ("Ba-SM100", "META-DES"):
        "d83a3be7c9634194def3f0ea310819fef6906857cad8e28d5053bfa941b816c8",
    ("Ba-SM100", "F-LCA"):
        "162af76865dca1f16670713c97a96ca194f5f0b1ca92d97854bdc97047ed82af",
    ("Ba-SM100", "F-MCB"):
        "c498d1acfc5876f9cf22250729ac95442587604fe65d95fb72b7b76cd2dbf830",
    ("Ba-SM100", "F-KNE"):
        "8a3f69321d09053ccbdcc5f15b5577ac0e061449809abe432f507288ecd06587",
    ("Ba-SM100", "F-KNU"):
        "30c7b8db6064413d9c7d77cee2e098847324b714ecfdc953f4577046880d45af",
    ("Ba-SM100", "F-DES-KNN"):
        "b71fe406ccfcf24fc4c4f9bea6187680ede457a31601f444fe8a39179c093a01",
    ("Ba-SM", "bootstrap"):
        "e5081baf00bc077246edc574419e25ba926f3cea720355637293a804cd1351a8",
    ("Ba-SM", "resampled"):
        "265d20fa20c1ebaaae9c76ae7f74b6885f157b32eb841c3ae93b0a5776682f43",
    ("Ba-SM", "trees"):
        "11a29985e8eb28e0652c0f15ff60951e47aa9e71ecef8573534ba4e2cd759551",
    ("Ba-SM", "dsel"):
        "a4a3cfc0f8c60923833bd33f94f9de2c809b34fb5e7eda044b8ea2c8469767da",
    ("Ba-SM", "queries"):
        "2c71c00e62dd3eaffe58a653f304e18677345453d03a39069ced350cba9e39c4",
    ("Ba-SM", "STATIC"):
        "5e126775810ae1209822f0b9976224a41b5a273f796ce67d0f77c9dda08647db",
    ("Ba-SM", "RANK"):
        "e1fa4e2d1115f0ffd31ba735418a79f3a923672d31a9f2110eae9140e1ea53c3",
    ("Ba-SM", "LCA"):
        "3720eb9bb7dec5d0597aa4c765c8cbcab914ae1c7f9ab250cefcbc1698558dad",
    ("Ba-SM", "MCB"):
        "5e126775810ae1209822f0b9976224a41b5a273f796ce67d0f77c9dda08647db",
    ("Ba-SM", "KNE"):
        "1e0a49a3566e35b3aee02c13148c7ea746be1a46eac9ac542932c7845f829e0e",
    ("Ba-SM", "KNU"):
        "5ea011bb9e0085a6c9f5bb93ea635e49a31408959a48bf768f45770af56e2202",
    ("Ba-SM", "DES-KNN"):
        "f48a97ec8e0418298c418bf0a36fd9e97f2e45a1d1a6145882767447b9290fe7",
    ("Ba-SM", "DESP"):
        "9eb7bd553ab7af688185f6d613cdc793bdd815c56ed49824f6fff2fb1ddecfc0",
    ("Ba-SM", "DES-RRC"):
        "9eb7bd553ab7af688185f6d613cdc793bdd815c56ed49824f6fff2fb1ddecfc0",
    ("Ba-SM", "META-DES"):
        "176bdf97d0fd27d6eab229cc50c41c8b10cc3cfb25c5a97b5e374217be0b305b",
    ("Ba-SM", "F-LCA"):
        "8ef093f4b628d7e98300d99185d4b46a4a70728947c63ecf056734b0c2cf4bbc",
    ("Ba-SM", "F-MCB"):
        "f4c63ddcfa3ff9acbce4302311bb43df2de2834b56c1c5a900430d59da809f74",
    ("Ba-SM", "F-KNE"):
        "9fc28b545460a7d8eac7b842ab5b58177584de4bea40dbb80945b67a953feb15",
    ("Ba-SM", "F-KNU"):
        "2b168d38352708e1224366912b721096326fe37f8cfb3d304a869be75fc029ca",
    ("Ba-SM", "F-DES-KNN"):
        "bb3c3af273684b6a0a5e446fe1f948514e7a315fbf076d600f07714dc31d23ab",
    ("Ba-RB", "bootstrap"):
        "295e922a238e80d56ac72a55c9be57a1ac9c4f7a6dbd590ac8a37e07af90a856",
    ("Ba-RB", "resampled"):
        "8afef9a858994e85a87aa0baf0b3e93c1670d9486b377b7668c72f9531b1c394",
    ("Ba-RB", "trees"):
        "4e050e6a6e25b0b9e6f1cd643ceea9e0eae5e577d0ada821a8fbb22a6a7d6d3a",
    ("Ba-RB", "dsel"):
        "4c660804203c66d65c1e79e35fae4bd7a742a1c581d0e061b168fadf71185302",
    ("Ba-RB", "queries"):
        "b69a4bb02db44c19e47a5b75879beb4cdfeabcb1ab9a996b0a6e72a29fc4ac89",
    ("Ba-RB", "STATIC"):
        "38bd2c31f1b5c823c5152cd5a5832ffbca61edffb7bd508b92f302fa1bd134ec",
    ("Ba-RB", "RANK"):
        "8cd9facd7d08d476520fcaec4630f6164b1ee04d24ac8d3464d8f07965fbc391",
    ("Ba-RB", "LCA"):
        "9763a4036261377d93e0be60ac549586f409bd65adc6880a9343e988a3c0d3b5",
    ("Ba-RB", "MCB"):
        "dce0ff6e711fa1acccd76b7c663a61e1ab426655d2a9c1ec8f9478ad55f8b6fd",
    ("Ba-RB", "KNE"):
        "e0f8a81be146aa846927fbe0212f195c6c82e122761af0b9a0ea2de3d4b516b2",
    ("Ba-RB", "KNU"):
        "05f7066e3cf2b2853fdbf6cd6eedaaa1aad5a684b3eb906e63a390b2ca239247",
    ("Ba-RB", "DES-KNN"):
        "c31fbeed0ad670b2203cde54990761e3f528dab28d49eb7769c66c01a00e0fda",
    ("Ba-RB", "DESP"):
        "5b12b944b3244a6142106cc46aebeba9148d00e478bf3b085ad4683812c7814d",
    ("Ba-RB", "DES-RRC"):
        "ae7528695268a54603167d40923e280564dce0b15aae1bc10415e08235fd8809",
    ("Ba-RB", "META-DES"):
        "a9be9067345771a0833a48ca8d792750ec3c244ac31d8ef9893b50a66e0e4328",
    ("Ba-RB", "F-LCA"):
        "2f62021659df5a313988fb25852adcfdbc0237f7d113c37837543929d82657bb",
    ("Ba-RB", "F-MCB"):
        "03abc82c6fdedcf76c6d9fb6733467c35610c4f1488c173402e5e29d31c69f59",
    ("Ba-RB", "F-KNE"):
        "e0e200acd3a510b4de78386f2a194ff8477f29bf8a858321228510be41e5b2c2",
    ("Ba-RB", "F-KNU"):
        "e7e647d293dfce8bfc0c2d4366606cc80b2a4adf182cca5a0470958acb23c99e",
    ("Ba-RB", "F-DES-KNN"):
        "e4506cd9821a06c01e3fd56d07c53bd527ed907b0f18a77665b1b81f36a14900",
}


def _versions() -> str:
    return f"numpy {np.__version__}, scipy {scipy.__version__}"


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _replication_one(spec):
    """(dataset, [(fold, train, test, cells)]) of replication 1."""
    dataset = resolve_dataset(spec, CFG)
    folds = [(fold, train, test, cells)
             for rep, fold, train, test, cells in _plan(CFG, dataset, set()) if rep == 0]
    return dataset, folds


def _stage_digests(train, test, variant) -> dict:
    """Digest of each stage of one cell, in pipeline order, the way
    `generate_pool` and `evaluate_cell` run them."""
    fold_seed = derive_seed(CFG.seed, train.name, variant, 0, "B")
    size = math.ceil(BOOTSTRAP_FRACTION * train.n_samples)
    indices, resampled = [], []
    for i in range(CFG.pool_size):
        rng = make_rng(fold_seed, "tree", i)
        idx, _ = _bootstrap(train, size, rng)
        boot = train.subset(idx)
        if variant != "Ba":
            boot = apply_multiclass(boot, variant, rng, warn_degenerate=False)
        indices.append(idx)
        resampled += [boot.features, boot.labels]
    pool = generate_pool(train, variant, CFG.pool_size, TreeConfig(), fold_seed)
    dsel = build_dsel(train, variant, fold_seed)
    ctx = SelectionContext(pool, dsel)
    scfg = SelectorConfig(k=CFG.k, seed=derive_seed(fold_seed, "selector"))
    ctx.meta = train_meta_classifier(ctx, train, k=scfg.k, kp=scfg.meta_kp)
    queries = ctx.make_queries(test.features, scfg.k)
    digests = {
        "bootstrap": _sha(*indices),
        "resampled": _sha(*resampled),
        "trees": _sha(*(a for t in pool.classifiers
                        for a in (t.feature, t.threshold, t.left, t.right, t.counts))),
        "dsel": _sha(dsel.features, dsel.labels),
        "queries": _sha(np.stack([q.indices for q in queries])),
    }
    for selector in SELECTOR_NAMES:
        results = [run_selector(selector, ctx, q, scfg) for q in queries]
        digests[selector] = _sha(
            np.array([r.predicted_class for r in results]),
            np.stack([r.aggregate_score(q) for r, q in zip(results, queries)]),
        )
    return digests


@pytest.fixture(scope="module")
def glass():
    return _replication_one("builtin:glass")


@pytest.mark.parametrize("variant", VARIANTS)
def test_stages_of_glass_fold_b(glass, variant):
    _, folds = glass
    (_, train, test, _), = [f for f in folds if f[0] == "B"]
    got = _stage_digests(train, test, variant)
    assert tuple(got) == STAGES
    moved = [stage for stage in STAGES if got[stage] != STAGE_DIGESTS[variant, stage]]
    assert not moved, (
        f"{variant}: first stage that moved: {moved[0]} (all moved: {moved}); {_versions()}"
    )


def _records(dataset, fold, train, test, cells) -> list:
    lines = []
    for variant, selectors in cells:
        for selector, values, _ in evaluate_cell(CFG, train, test, variant, 0, fold, selectors, 1):
            for metric in CFG.metrics:
                key = (dataset.name, variant, selector, "1", fold, metric)
                lines.append("\t".join(key) + f"\t{values[metric]:.12g}")
    return lines


@pytest.mark.parametrize("name", ["glass", "ecoli"])
def test_replication_one_records(glass, name):
    dataset, folds = glass if name == "glass" else _replication_one("builtin:ecoli")
    assert [f[0] for f in folds] == ["B", "A"]
    for fold, train, test, cells in folds:
        lines = _records(dataset, fold, train, test, cells)
        assert len(lines) == len(VARIANTS) * len(SELECTOR_NAMES) * len(METRIC_NAMES)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == RECORD_DIGESTS[name, fold], (
            f"{name} replication 1 fold {fold}: the records moved; {_versions()}"
        )
