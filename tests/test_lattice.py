"""Subgroup lattice tests.

The ground truth for small groups is brute_all_subgroups, which closes
every generating subset of size at most 4 with raw products.  Larger
groups are pinned to classical subgroup counts, and every catalog lattice
to frozen digests: one of its element sets and class ids, one of the
generators its reports print.
"""

import hashlib
import time

import pytest

from conftest import (
    alternating,
    brute_all_subgroups,
    brute_closure,
    cyclic,
    dihedral,
    klein_four,
    normalizer_in,
    order_of,
    symmetric,
)
from sylowlab import config
from sylowlab.catalog import catalog_upto, construct_text
from sylowlab.errors import CapExceeded
from sylowlab.lattice import subgroup_lattice
from sylowlab.tables import CayleyTable, get_table


def maximal_overgroups(lat, i):
    s = lat.element_sets[i]
    return tuple(j for j in lat.maximal_indices() if s <= lat.element_sets[j])


def as_perm_sets(lat):
    els = lat.ctx.elements
    return {frozenset(els[i] for i in s) for s in lat.element_sets}


class TestAgainstBruteForce:
    @pytest.mark.parametrize("make", [
        lambda: cyclic(6),
        klein_four,
        lambda: symmetric(3),
        lambda: dihedral(4),
        lambda: cyclic(8),
        lambda: alternating(4),
    ])
    def test_every_subgroup_found(self, make):
        G = make()
        lat = subgroup_lattice(G)
        expected = brute_all_subgroups(G.degree, G.elements())
        assert as_perm_sets(lat) == expected


class TestCounts:
    @pytest.mark.parametrize("make,count", [
        (lambda: cyclic(6), 4),
        (klein_four, 5),
        (lambda: symmetric(3), 6),
        (lambda: dihedral(4), 10),
        (lambda: alternating(4), 10),
        (lambda: symmetric(4), 30),
        (lambda: alternating(5), 59),
        (lambda: symmetric(5), 156),
        (lambda: alternating(6), 501),
    ])
    def test_total(self, make, count):
        assert len(subgroup_lattice(make())) == count

    @pytest.mark.parametrize("n,classes", [(3, 4), (4, 11), (5, 19), (6, 56)])
    def test_symmetric_class_counts(self, n, classes):
        # OEIS A000638: conjugacy classes of subgroups of S_n
        assert len(subgroup_lattice(symmetric(n)).classes()) == classes

    def test_symmetric_7_class_count(self, monkeypatch):
        monkeypatch.setattr(config, "override", 5040)
        start = time.monotonic()
        lat = subgroup_lattice(symmetric(7))
        assert len(lat.classes()) == 96
        assert len(lat) == 11300
        assert time.monotonic() - start < 30.0

    def test_alternating_5_classes_and_maximals(self):
        lat = subgroup_lattice(alternating(5))
        assert len(lat.classes()) == 9
        maximal_orders = sorted(order_of(lat, i) for i in lat.maximal_indices())
        assert maximal_orders == [6] * 10 + [10] * 6 + [12] * 5

    def test_alternating_6_maximals(self):
        lat = subgroup_lattice(alternating(6))
        assert len(lat.classes()) == 22
        orders = {}
        for i in lat.maximal_indices():
            orders[order_of(lat, i)] = orders.get(order_of(lat, i), 0) + 1
        assert orders == {24: 30, 36: 10, 60: 12}

    def test_symmetric_4_maximals(self):
        lat = subgroup_lattice(symmetric(4))
        orders = sorted(order_of(lat, i) for i in lat.maximal_indices())
        assert orders == [6, 6, 6, 6, 8, 8, 8, 12]


class TestStructure:
    def test_sorted_by_order_with_endpoints(self):
        lat = subgroup_lattice(symmetric(4))
        orders = [order_of(lat, i) for i in range(len(lat))]
        assert orders == sorted(orders)
        assert order_of(lat, 0) == 1
        assert order_of(lat, lat.top) == 24

    def test_subgroup_objects(self):
        lat = subgroup_lattice(alternating(4))
        for i in range(len(lat)):
            H = lat.subgroup(i)
            assert H.order() == order_of(lat, i)
            fs = frozenset(lat.ctx.index[e] for e in H.elements())
            assert lat.element_sets.index(fs) == i
        assert lat.subgroup(lat.top) is lat.parent

    @pytest.mark.parametrize("entry", catalog_upto(2000), ids=lambda e: e.label)
    def test_subgroup_has_its_element_set(self, entry):
        lat = subgroup_lattice(entry.build())
        for i in range(len(lat)):
            H = lat.subgroup(i)
            assert frozenset(lat.ctx.index[e] for e in H.elements()) == lat.element_sets[i]

    def test_normal_subgroups_of_symmetric_4(self):
        lat = subgroup_lattice(symmetric(4))
        orders = sorted(order_of(lat, i) for i in lat.normal_indices())
        assert orders == [1, 4, 12, 24]

    def test_normal_subgroups_of_alternating_5(self):
        lat = subgroup_lattice(alternating(5))
        assert [order_of(lat, i) for i in lat.normal_indices()] == [1, 60]

    def test_class_members_share_order(self):
        lat = subgroup_lattice(alternating(5))
        for members in lat.classes().values():
            orders = {order_of(lat, i) for i in members}
            assert len(orders) == 1
        # class sizes sum to the subgroup count
        assert sum(len(v) for v in lat.classes().values()) == len(lat)

    def test_maximal_overgroups(self):
        lat = subgroup_lattice(symmetric(4))
        # the trivial subgroup sits below every maximal subgroup
        assert maximal_overgroups(lat, 0) == lat.maximal_indices()
        for i in lat.maximal_indices():
            assert maximal_overgroups(lat, i) == (i,)


class TestDeterminismAndCaps:
    def test_two_builds_agree(self):
        # separate group objects, so nothing is shared through the cache
        a = subgroup_lattice(alternating(5))
        b = subgroup_lattice(alternating(5))
        assert a is not b
        assert a.element_sets == b.element_sets
        assert a.class_reps == b.class_reps
        assert a.class_ids == b.class_ids

    def test_cached_on_group(self):
        G = symmetric(3)
        assert subgroup_lattice(G) is subgroup_lattice(G)

    def test_cap_refusal(self):
        G = alternating(7)
        with pytest.raises(CapExceeded) as e:
            subgroup_lattice(G)
        assert e.value.required == 2520
        assert e.value.cap == 2000

    def test_explicit_cap_wins(self, monkeypatch):
        monkeypatch.setattr(config, "override", 10)
        with pytest.raises(CapExceeded):
            subgroup_lattice(symmetric(4))


# sha256 of repr((element sets as sorted tuples, class_ids)), frozen from the
# sweep that adjoined every cyclic subgroup and kept the generators it used
FROZEN_STRUCTURE = {
    "C2": "1e82846d58e6da5a97b2e37bd5f087c8fa002cd8a9b5a35eb52f9004b258a2d1",
    "C3": "3bab9c93d440609bbab566866b3ee483e1ef8e89abd3ebcb26fa0625da05f9f6",
    "C4": "3853e591cbad4aa72534408773c3901739ba9ef31464b519d681ffa2399a5f0b",
    "V4": "e9b0e87a3fcdad914c97d51e3046e1d954d557e5e403442f3f204f024325ece7",
    "C5": "41eecd535a2f8c6b2771433707dd4df798866714a1cded61a3aaebeb5fe8d426",
    "C6": "9ef9b861919a7d85630381912e52767ccbb13370571ae2676ee10c17cbf1b3b8",
    "S3": "dc9e7109a9536e5b2b3417e00620025a2a772c3f02ebc4ca11e87dd02b5d8ef1",
    "C7": "75fed163fd5589f284a7626f0149101b867e9453065051fd7b808650bb4ae483",
    "C8": "3aaffa934c2f6d4bf0a9468eaae12006dfec5b3b9e8de084ce7236c3cce40c5e",
    "D8": "cd5f96be24f15f17e8169ab0077459420ac19853fca6c436689a4c186c44d8aa",
    "Q8": "9f5319b4457db5de731602fbee5a15419d2b7ca5c8225d80016fd9a356cc663d",
    "E8": "090ec25f4e2b477d9c177825f878f37a3faa9493ed210d5eba1ef8b080fc7642",
    "C2xC4": "9f51a2c559feae81cd93bc775bd54fab27fe09944bdfe92302d63e0072fc05f6",
    "C2wrC2": "3a0282c3eb854e2699d458b7b15234582738a4c632b3c28428ceb093f690692b",
    "C9": "9dea95e59f228a67e63778f1519ca50ccbbccb392de7fc33602acdc61231611c",
    "C3xC3": "ee720f34de6c3f892036e387fee17d9ad111b7a5fd6cee4d1dc0f7e9437ac4d7",
    "D10": "ff5e213afc5253967ee6b03ab7eea2eb49894a4a58a20ce06b433b41ac312428",
    "C12": "6b0f03323d31694ea5be58c03f545f3ad124ab33d2147062725689b5344902d6",
    "D12": "098328c8ce17db22c3fc4397f74b09a74edf9025cd77b0959d64b9a31b964d02",
    "A4": "940df9c2d015a030f8d7983d8b725aefadca7feb25b71bd47bc27e4afe3a26c9",
    "Borel(2,4)": "9d2f09d7b2104d4cd5f3dd0889300e4602c6a318f67b6da709d3fa612565f998",
    "D14": "9ae773eb1cc0536ce68a560bf8ad66f4a3d72236fe8253df78d19d98219a6bb8",
    "F21": "af055350ce680a4a3f6bba99fdd9950ff6091650b4f7df9a9297d527e325af3d",
    "S4": "b03e323b3faafb40d8651a0e1370b6c85ab7d1a7a6349e6b32646e66bd693ba8",
    "SL(2,3)": "17fd2646feeaa9f36d926641dac3752720790c87de26d1cbac63b78f7da3022a",
    "A4xC2": "4c0afea0068921207c3261168c722094f5fa48d6908aeb9c9c7ee79921f9ad6a",
    "C5xC5": "e41de5bf6cc52f044a8b1fef5e7b7c8817f8177c1fb09b3c9ec33376d1976ce7",
    "S3xS3": "8c292889b8b0c6c81c93b071b6998d53af4f934a83640fe000a3fc2645d62328",
    "Borel(2,8)": "e389ce7d149df4747e55ab9e0c93952de6427129d50e6a5cd21a9fbd9db743f0",
    "A5": "4df0fc6345330bc655f9d615cf4bed4870dbf430ae420ce2bfbdd660c0a24197",
    "SL(2,4)": "218a5ed2a09b6d144a80a2e3f4db084f900ddab9b499218bd9c6860d0368e630",
    "PSL(2,5)": "f65c6a9ac6eef96eb6b6ab5cfbe530c0e1592215bc6c722e6c5a9b8377275e20",
    "Borel(2,9)": "d0b76fcdaf52f974de225ab40af8a33373b99758c0b04f84c5fce54ed1396072",
    "C3wrC3": "eeeb8f8995684a0fa0c8837b3bdafa175739c9754e439a5696e667be44503897",
    "SL(2,5)": "eae2dff67d23c504917d4ee50fd42659febed70afd0cd96e5cdc2377441f32af",
    "S5": "671409fd593707bc7b18fc744e93ec1b873e5686a94ce717cef6b8ad14cb3d23",
    "PSL(2,7)": "b896e90a2984b4fda4f40646caad9b60d49bc9b3a3fa19628b1da0428db39643",
    "A6": "310d747735d690f0c7685e50e1677a624a8a6fca940eb55ecdd7d342b72d6091",
    "SL(2,8)": "f43c4459e9a9ce8eb69826d2085f2fd06c3931481be8e21056d7c1f12371950c",
    "S6": "96b18fc3f320139ddc2d06068f31ce361817cc0530d1fecce6882d7c888cdd33",
    "PSL(2,11)": "126ab0593dcb7b5245cac7327c1957ddf3497d6f4fe34cc2ecff64805fb677f3",
    "C2 wr C2 wr C2": "d813e4330955ac6d966d88703cd1dd36ed68b5da5c0522fcd720e66b2b4172dd",
    "S4 x S3": "3b60eb4b5a9d0cbb32ea7a6424f4776bc796c91d6d145cbb50b0a2f88c416fd5",
    # frozen from the sweep that extended each class representative by one
    # cyclic subgroup per orbit of its normalizer: each group below is
    # perfect or has a proper nontrivial solvable residual
    "PSL(2,13)": "8772c1fc14d9381db2d606b0c8e6c8c85c789854de18e08ef0ad099bd2ff3791",
    "A5 x C3": "18de884dcc31a9c97178abb09e78487c10a05ccbd90b8e72db4fbf2cbe01c26e",
    "A5 x S3": "c5db83a7565b2fd1903f4c7e90558c5e55583717bd101aa41599f6c622aeb0ef",
    "S5 x C2": "d1142cb0679059ed5835d11ff401bc0ab0edce6df292c3031e8bc56c0c0a0a3c",
    "SL(2,5) x C2": "baca0b28e855c6906eba5f953a242e7d91623f39f156eb5586ae08c173e4719d",
    "PSL(2,7) x C2": "eb546eb1593fd3e41d6d15deb89727d26ee5c9bf004d283c858b04e8c789d935",
}

# sha256 of repr(the cycle strings of generators_of(i), for every index i)
FROZEN_GENERATORS = {
    "C2": "95a0d4ba95f41a4525189a3c8ee9bf27177ce097be9178b57ebb6978dbc4131e",
    "C3": "f3d99f47bd844d112a1183138e8d32631a4050d0d5304f617732b7119e083828",
    "C4": "699bf4b8d221b854939d105d53df4cc0426dddef9a4fd01a26fa1aefc6bc278b",
    "V4": "134fbdfe5f816c9e1e0fc9a87edd0d20c49e1b32ec54696d3574e7b2dcdfd8fb",
    "C5": "2a8e40677a861f981f3b02de440885ddea07cdfe70e0066e7d8aac846d92df93",
    "C6": "c98b56f882fde087307c72dc06b61b3fd773eea55e094eeba5d6be0afa7d815f",
    "S3": "7f13be7431857da6e04fcf3921657471ce267cd0df31dd1d61926212329bc69f",
    "C7": "9212b2cf4ef5a43a3a603baa479d75e6ccdc8b2c9453e73f0e75d65a49d036be",
    "C8": "e935baaf559ff8b68290410d7795b55b1be8df95705eff4962aa82ad18a64ae5",
    "D8": "20d1c9985a5c9656ec60e244e591b4c3f03b44a8147e237ca5ae8b498da10d7b",
    "Q8": "b36e04f86b292d0b26c659b57d1a848fb5eedfc5ce2f537d6ee92d3b92b27c91",
    "E8": "c361ba0e627376b6c219db3f53b4d12379c9fc4767c9fcdf6d5f25a89cf49cea",
    "C2xC4": "3ccc12ec717d9a748cfec04243af33fb62ea1fcb1b45a4c47c7f8dac33708555",
    "C2wrC2": "236d4ed018e583c04cbca6e2cbb4c9dc702d63587bf648cfda1dd0deec31d36b",
    "C9": "15364e7e3f9c74b2e2185133036b4c582b1d3f79dadf0515aff835d629b0c02a",
    "C3xC3": "2c8a6fe1e85c007044ee71d908eea2b7412c23d5d3e99667c5f84f5be5fbe0a0",
    "D10": "f9fd81111a1ca08bd8ac9e85215b9074308cb3f285bbabc71ce35b71ba516f7e",
    "C12": "30b00d040f9de112e9c9d80cee34cefe37ec0385177cb7d060d72f95eff15507",
    "D12": "e5cb9d8676629d30a43cd235475e8573edfdc2b301eaa8f3479d06b724310b9b",
    "A4": "823f47ff735c32f358cf2379bf792c406a44fae1315c757d72d3518ff4f65657",
    "Borel(2,4)": "9b528457c2dce1dd78e4c3239990352e0698461cdc77f511971687b20e5af824",
    "D14": "9079f85f4846b326c2ad5b66a55ddf1a29dd43781389aa1eb07791da7caf6cd9",
    "F21": "461cc72d870367caff51593e14e7d6ea835e97e7a6cc8a626f1f02d065ec9295",
    "S4": "ebfb12cded370e5c2c937e235d71081c1037135403a619b44d907c53c4718395",
    "SL(2,3)": "b00bdedbbc17312cc1ca6241afff2c1ec3b04409cf096bf03a4c2dd83a572605",
    "A4xC2": "ea09c5e9d43bbfde0020b48d52c6edd5daa787769eb5e507280eec7d904f27f5",
    "C5xC5": "3ae92c785cab309b7c3c2c67178909be1769604fdb35516633a481f012af217d",
    "S3xS3": "87cb9230e46640c2e651ee20b6af6248920f25158543682d526598a7e69c8d71",
    "Borel(2,8)": "36344955cd4ea9137e496deba5818ee5c4dd3cfd941cee03068c20b9eb6c33ef",
    "A5": "67e1a269af6710a9db8600a4bcc5f4a75bb66c5ba6ce0800eac0ff7a15ac9eef",
    "SL(2,4)": "42a68d19f293cfc37e978debf6c89613634030960540472abe2ad104ed78caa0",
    "PSL(2,5)": "7eccf41e856977a5196ed4a09c10c072234190320ffb6742acf5e0d0fa0c999e",
    "Borel(2,9)": "545ff39ef320814b8e74db54f1c0411fe35ae6469f4b73af1e178cc734a8bda3",
    "C3wrC3": "646e751a3c3d5150bf18237932ee61d6325530734dc540dd044140dbf3fbc0d1",
    "SL(2,5)": "5acd28e965cabf609adda964531ee5870448ee3b054aafaf1f4bc1901f4f9f55",
    "S5": "68b3132b72698a810ef3f928d6fce2425b27d35b863ac9596aa64359267a3133",
    "PSL(2,7)": "3de88132352205566372cd5c6487fac0f9f23e3d9e5253a5ede2bffd1b5a1d64",
    "A6": "09520b9b20887eae6b3bf1585877ffa0bf13fd216922367008dbc247b5e24d8d",
    "SL(2,8)": "b970c05e4a96dc311fc92539a748f03912c12827a34d3535965b8af52e9ca768",
    "S6": "5c560ad8539a210358b7dc1fd5d13869c24f77f42e9e3fc17b7970b792b612be",
    "PSL(2,11)": "af704bcc9e38c21147d65ee5c806d0a2f1330412bae225c341a811c07312e74f",
    "C2 wr C2 wr C2": "ed10468fa8dac5e9fc30a9af2df3579901e8b5ec2be7dca7100fc621c4304569",
    "S4 x S3": "58f8f9c2db65a2bfc33ababc921d94ef295c00ba4d0dc1f38b8eb63bf8016a98",
}


def lattice_group(label: str):
    entry = {e.label: e for e in catalog_upto(2000)}.get(label)
    return entry.build() if entry else construct_text(label)


def structure_digest(lat) -> str:
    data = (tuple(tuple(sorted(s)) for s in lat.element_sets), lat.class_ids)
    return hashlib.sha256(repr(data).encode()).hexdigest()


def generators_digest(lat) -> str:
    data = tuple(tuple(g.cycle_string() for g in lat.generators_of(i)) for i in range(len(lat)))
    return hashlib.sha256(repr(data).encode()).hexdigest()


def printed_generators_by_closure(lat, i: int) -> list[int]:
    """The printed-generator rule recomputed with raw closures: walk the
    sorted indices of subgroup i, keeping each one outside the closure of
    those kept so far."""
    ctx = lat.ctx
    kept, span = [], {0}
    for x in sorted(lat.element_sets[i]):
        if x not in span:
            kept.append(x)
            closure = brute_closure(lat.parent.degree, [ctx.elements[k] for k in kept])
            span = {ctx.index[y] for y in closure}
    return kept


class TestFrozenLattices:
    @pytest.mark.parametrize("label", FROZEN_STRUCTURE)
    def test_digest(self, label):
        assert structure_digest(subgroup_lattice(lattice_group(label))) == FROZEN_STRUCTURE[label]

    @pytest.mark.parametrize("label", FROZEN_GENERATORS)
    def test_printed_generators(self, label):
        assert generators_digest(subgroup_lattice(lattice_group(label))) == FROZEN_GENERATORS[label]

    @pytest.mark.parametrize("entry", catalog_upto(500), ids=lambda e: e.label)
    def test_printed_generators_follow_their_rule(self, entry):
        """Every subgroup's printed generators are the rule's, recomputed by
        `brute_closure`, and they generate the subgroup."""
        G = entry.build()
        lat = subgroup_lattice(G)
        ctx = lat.ctx
        for i, sub in enumerate(lat.element_sets):
            gens = lat.generators_of(i)
            assert [ctx.index[g] for g in gens] == printed_generators_by_closure(lat, i)
            assert {ctx.index[x] for x in brute_closure(G.degree, gens)} == sub


class TestNormalizers:
    @pytest.mark.parametrize("entry", catalog_upto(500), ids=lambda e: e.label)
    def test_normalizer_of_every_class_representative(self, entry):
        """`CayleyTable.normalizer`, given |G| / |class|, is the brute scan of G,
        and its generators close to it."""
        G = entry.build()
        lat = subgroup_lattice(G)
        ctx = lat.ctx
        for members, (sub, gens) in zip(lat.classes().values(), lat.class_reps):
            assert sub == lat.element_sets[members[0]]
            norm, ngens = ctx.normalizer(sub, gens, ctx.n // len(members))
            assert norm == frozenset(normalizer_in(ctx, range(ctx.n), gens, sub))
            assert len(norm) * len(members) == ctx.n
            closure = brute_closure(G.degree, [ctx.elements[g] for g in ngens])
            assert frozenset(ctx.index[x] for x in closure) == norm


class TestRoutes:
    """Extensions by a cyclic subgroup outside the normalizer (the general
    route, the only one that passes ``extend`` a limit) run only inside a
    nontrivial solvable residual."""

    @staticmethod
    def bounded_calls(monkeypatch) -> list[int]:
        calls = []
        extend = CayleyTable.extend

        def counting(self, sub, gens, g, limit=None):
            if limit is not None:
                calls.append(limit)
            return extend(self, sub, gens, g, limit)

        monkeypatch.setattr(CayleyTable, "extend", counting)
        return calls

    @pytest.mark.parametrize("entry", catalog_upto(2000), ids=lambda e: e.label)
    def test_no_general_route_without_a_residual(self, entry, monkeypatch):
        G = entry.build()
        calls = self.bounded_calls(monkeypatch)
        subgroup_lattice(G)
        if len(get_table(G).solvable_residual()[0]) == 1:
            assert calls == []

    def test_general_route_runs_on_alternating_5(self, monkeypatch):
        calls = self.bounded_calls(monkeypatch)
        subgroup_lattice(alternating(5))
        assert calls and set(calls) == {60 // 5}
