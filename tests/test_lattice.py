"""Subgroup lattice tests.

The ground truth for small groups is brute_all_subgroups, which closes
every generating subset of size at most 4 with raw products.  Larger
groups are pinned to classical subgroup counts, and every catalog lattice
(generator sets and class ids included) to a frozen digest.
"""

import hashlib

import pytest

from conftest import (
    alternating,
    brute_all_subgroups,
    brute_closure,
    cyclic,
    dihedral,
    klein_four,
    normalizer_in,
    symmetric,
)
from sylowlab.catalog import catalog_upto, construct_text
from sylowlab.errors import CapExceeded
from sylowlab.lattice import subgroup_lattice


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

    def test_alternating_5_classes_and_maximals(self):
        lat = subgroup_lattice(alternating(5))
        assert len(lat.classes()) == 9
        maximal_orders = sorted(lat.order_of(i) for i in lat.maximal_indices())
        assert maximal_orders == [6] * 10 + [10] * 6 + [12] * 5

    def test_alternating_6_maximals(self):
        lat = subgroup_lattice(alternating(6))
        assert len(lat.classes()) == 22
        orders = {}
        for i in lat.maximal_indices():
            orders[lat.order_of(i)] = orders.get(lat.order_of(i), 0) + 1
        assert orders == {24: 30, 36: 10, 60: 12}

    def test_symmetric_4_maximals(self):
        lat = subgroup_lattice(symmetric(4))
        orders = sorted(lat.order_of(i) for i in lat.maximal_indices())
        assert orders == [6, 6, 6, 6, 8, 8, 8, 12]


class TestStructure:
    def test_sorted_by_order_with_endpoints(self):
        lat = subgroup_lattice(symmetric(4))
        orders = [lat.order_of(i) for i in range(len(lat))]
        assert orders == sorted(orders)
        assert lat.order_of(0) == 1
        assert lat.order_of(lat.top) == 24

    def test_subgroup_objects(self):
        lat = subgroup_lattice(alternating(4))
        for i in range(len(lat)):
            H = lat.subgroup(i)
            assert H.order() == lat.order_of(i)
            fs = frozenset(lat.ctx.index[e] for e in H.elements())
            assert lat.element_sets.index(fs) == i
        assert lat.subgroup(lat.top) is lat.parent

    @pytest.mark.parametrize("entry", catalog_upto(2000), ids=lambda e: e.label)
    def test_subgroup_has_its_element_set(self, entry):
        lat = subgroup_lattice(entry.build())
        for i in range(len(lat)):
            H = lat.subgroup(i)
            assert frozenset(lat.ctx.index[e] for e in H.elements()) == lat.element_sets[i]

    def test_contains_matches_set_inclusion(self):
        lat = subgroup_lattice(symmetric(3))
        for i in range(len(lat)):
            for j in range(len(lat)):
                assert lat.contains(i, j) == (
                    lat.element_sets[j] <= lat.element_sets[i])

    def test_normal_subgroups_of_symmetric_4(self):
        lat = subgroup_lattice(symmetric(4))
        orders = sorted(lat.order_of(i) for i in lat.normal_indices())
        assert orders == [1, 4, 12, 24]

    def test_normal_subgroups_of_alternating_5(self):
        lat = subgroup_lattice(alternating(5))
        assert [lat.order_of(i) for i in lat.normal_indices()] == [1, 60]

    def test_class_members_share_order(self):
        lat = subgroup_lattice(alternating(5))
        for members in lat.classes().values():
            orders = {lat.order_of(i) for i in members}
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
        assert a.generator_sets == b.generator_sets
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

    def test_explicit_cap_wins(self):
        with pytest.raises(CapExceeded):
            subgroup_lattice(symmetric(4), cap=10)


# sha256 of repr((element sets as sorted tuples, generator_sets, class_ids)),
# frozen from the builder that scanned all of G for each normalizer
FROZEN_DIGESTS = {
    "C2": "3d85a40ef02bc4ec180e815917337d352a38e4c8dd294db421f9e7fa18d1ab1e",
    "C3": "d387c0b71aafcbabfd1a9c235f88a408a47b73dd05a1eee653f424d6180c0f4e",
    "C4": "acb37c0642c035da7814c05b7d8407e0180c4416563752f103bfa613ae67bdfb",
    "V4": "351c2962bc4e9afef9d854d09081b5ea3aba79d5ded4d409c2c01c562bd63d5b",
    "C5": "48c2822f3d5bd1dca966ef8ab5270e92b4749ec6fa5c85e1c922d477e6ff6399",
    "C6": "1cc705552f1d07d9143b79e3047a15d0258fff777225f070c251719588240efa",
    "S3": "1dd19a05f4f05c49ddea39502673a882448ed47661019df8eb727a4cee35300b",
    "C7": "c54d65683831bc43a926c42332d984611ee23ed7daeafdbc542f26538e801778",
    "C8": "2f58853eaf5890b3537456e3f44a657f9d4c974388a644365cad3954ba715d9b",
    "D8": "0c705b957f1ab679cba42dfe6f049545739faddce5eb9a972f5e79c80b4dd2df",
    "Q8": "204f982f792eb70a73a990b65c354ca6a97c8e4dd4f86413b4fbf253e4b5a6ec",
    "E8": "53ba6a07a1b98d51b74728a7323b133ce5d6b67309ca4c0304c70d104f6c2812",
    "C2xC4": "8c0b90919964e38545ff86370f66460e41353aa4259b0aba347c7e2005d2f1eb",
    "C2wrC2": "502b9275220fa8b854e2a2ac40ae9850261982267c7c904db68dd82e050456c7",
    "C9": "7417ec8b2001bf71f4e5b4782d007cf5c36cb6d35be32ec3139b3d4e83bcac9d",
    "C3xC3": "559022cab6e0fe945a7cf74470894d856c5311d53d0e07c5b46fef3db93f2942",
    "D10": "ffd6d17c1d3222bf9d11b7ee6a61b5630d8f82462231901e5b0f48bc22a33fee",
    "C12": "d8387736efe00a2430b43683b6b8482d70fbdc165d11433e4ca7547651854a2e",
    "D12": "510c761cb20be5bb39edb807b2cab56159976e34a5d0f228024add0323d2a5f6",
    "A4": "0e1948f3ad254808fc1bd4453a5115f975503fbc6d2341a6ae641b0afc38d8d7",
    "Borel(2,4)": "df280836c633e8b99042d5e5877ac86f37d4a52a180da6f3a4019f0154d3c4a8",
    "D14": "8bf419d4593e75b6d83ede41e8a1e55ce310ab3de6c519330b1b84cc99233c28",
    "F21": "2c873bbe86047804f21d002c03249c8af95e2e9c5fab4b7f25f0d85222ada2cf",
    "S4": "8325e4366128b8f42b3cf78c96723e4de88f56f941e81ae75961c26caad744f5",
    "SL(2,3)": "ba9aee6582dc7cd7eea640f97767af44a5547a252d4e865e77d67c99b7878855",
    "A4xC2": "a5798d1a4f98971daf021f26804df23a763dfe069b6bf66c4444146436efac66",
    "C5xC5": "59a9d08ba4545bea3a8cd537ae24acac67b7a4efe403e66d649d15a85d3733fe",
    "S3xS3": "ec4d9612e94b96491a3155700bb7a27aff80c88fd8fd63f1f4e8f049ad69570f",
    "Borel(2,8)": "c93060be634efd6e4418ccfef20bd192516d6a1e728530825ff4edd7787feb6b",
    "A5": "ab23d3b5851db8f65215142ffab45ec5013afba4357fd97d8f7589899dde69dd",
    "SL(2,4)": "cab755de42e561b87dc96c085d4da51a39f496927c042f6a6ac987932496ed85",
    "PSL(2,5)": "d54355bf0e4a691cc116d8ea313bcbdc922c8f7bca921121b963cbdaa0e1a6ed",
    "Borel(2,9)": "c868fa7b536455637fbe89bba3e4d1e6ff30b72e18289d359b81473e9619f6e3",
    "C3wrC3": "989745a5bcac166de33275c3831ddf7038fb422bb4cbef36d352d422c7f32d76",
    "SL(2,5)": "80509c3e132a97b1ee941be65be36322b2a492f98a0c5d39d56f38ebb122abad",
    "S5": "d7b3b5999f73ffbac5b0f031b3582d5a407e0423e5744750e17b527952c83853",
    "PSL(2,7)": "fc5f1d2a6c301e70f50d3edf506a900ecebc2282dffd11737908ac02686056e5",
    "A6": "2030e5d07ad586e1be6d15d07559fcbaba37d2a648552ebba036ddcfd2af056b",
    "SL(2,8)": "3545bb00effa71db325bfae38333b176f09276e6aacc02546171c783bec4e774",
    "S6": "c821ee7bd580b8962b052335d471167b58f3919e9647715d8f7bdc04cb737f63",
    "PSL(2,11)": "53d6f9854cd1b6bbae05ae3711440044a51da0d318bb2d205ceaf89f27986c9b",
    "C2 wr C2 wr C2": "8f213abab1d513a6a4a9bf532916695048ba0d872fc7c124f1cf5497f7899ae8",
    "S4 x S3": "269752bbaeafe338684752709231d1d813e091b9560286b751993f924a5d15f1",
}


def lattice_digest(lat) -> str:
    data = (tuple(tuple(sorted(s)) for s in lat.element_sets), lat.generator_sets, lat.class_ids)
    return hashlib.sha256(repr(data).encode()).hexdigest()


class TestFrozenLattices:
    @pytest.mark.parametrize("label", FROZEN_DIGESTS)
    def test_digest(self, label):
        entry = {e.label: e for e in catalog_upto(2000)}.get(label)
        G = entry.build() if entry else construct_text(label)
        assert lattice_digest(subgroup_lattice(G)) == FROZEN_DIGESTS[label]


class TestNormalizers:
    @pytest.mark.parametrize("entry", catalog_upto(500), ids=lambda e: e.label)
    def test_normalizer_of_every_class_representative(self, entry):
        """`CayleyTable.normalizer`, given |G| / |class|, is the brute scan of G,
        and its generators close to it."""
        G = entry.build()
        lat = subgroup_lattice(G)
        ctx = lat.ctx
        for members in lat.classes().values():
            sub, gens = lat.element_sets[members[0]], lat.generator_sets[members[0]]
            norm, ngens = ctx.normalizer(sub, gens, ctx.n // len(members))
            assert norm == frozenset(normalizer_in(ctx, range(ctx.n), gens, sub))
            assert len(norm) * len(members) == ctx.n
            closure = brute_closure(G.degree, [ctx.elements[g] for g in ngens])
            assert frozenset(ctx.index[x] for x in closure) == norm
