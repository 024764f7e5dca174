"""Tests for the group-expression parser, constructors, and catalog."""

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from sylowlab import config
from sylowlab.catalog import (
    CATALOG,
    CatalogEntry,
    FamilyAtom,
    GensAtom,
    MAX_DEPTH,
    MatrixAtom,
    Product,
    Wreath,
    catalog_entry,
    catalog_upto,
    construct,
    construct_text,
    degree_of,
    parse_group_expr,
    predicted_order,
)
from sylowlab.errors import (
    CapExceeded,
    ExprSyntaxError,
    UnsupportedDegree,
    UnsupportedField,
)
from sylowlab.group import is_subgroup

from conftest import alternating, dihedral, symmetric
from test_gf import FIELD_SIZES


# the grammar's tokens and characters, whitespace, and two that no token takes
TOKENS = ["S", "A", "C", "D", "SL", "PSL", "Borel", "Q", "x", "wr", "(", ")", ",",
          "[", "]", "0", "2", "3", "12", "(1 2)", "()", " ", "\t", "\n", "\u00a0", "@", "é"]
ALPHABET = sorted(set("".join(TOKENS)))

EXPRS = st.recursive(
    st.one_of(
        st.builds(FamilyAtom, st.sampled_from("SACD"), st.integers(0, 20)),
        st.builds(MatrixAtom, st.sampled_from(["SL", "PSL", "Borel"]), st.integers(0, 40)),
        st.sampled_from(["[(1 2 3), (1 2)]", "[()]", "[(1 2)(4 5)]"]).map(parse_group_expr)),
    lambda sub: st.builds(Product, sub, sub) | st.builds(Wreath, sub, sub),
    max_leaves=32)


class TestParser:
    def test_atoms(self):
        assert parse_group_expr("A5") == FamilyAtom("A", 5)
        assert parse_group_expr("S12") == FamilyAtom("S", 12)
        assert parse_group_expr("C 4") == FamilyAtom("C", 4)
        assert parse_group_expr("D8") == FamilyAtom("D", 8)
        assert parse_group_expr("SL(2,8)") == MatrixAtom("SL", 8)
        assert parse_group_expr("PSL( 2 , 7 )") == MatrixAtom("PSL", 7)
        assert parse_group_expr("Borel(2,4)") == MatrixAtom("Borel", 4)

    def test_combinators(self):
        e = parse_group_expr("S3 x C2")
        assert e == Product(FamilyAtom("S", 3), FamilyAtom("C", 2))
        e = parse_group_expr("(C3 wr C3)")
        assert e == Wreath(FamilyAtom("C", 3), FamilyAtom("C", 3))

    def test_precedence_wreath_binds_tighter(self):
        e = parse_group_expr("C2 x C3 wr C3")
        assert e == Product(
            FamilyAtom("C", 2), Wreath(FamilyAtom("C", 3), FamilyAtom("C", 3)))

    def test_left_associativity(self):
        e = parse_group_expr("C2 x C3 x C5")
        assert e == Product(
            Product(FamilyAtom("C", 2), FamilyAtom("C", 3)), FamilyAtom("C", 5))
        w = parse_group_expr("C2 wr C2 wr C2")
        assert w == Wreath(
            Wreath(FamilyAtom("C", 2), FamilyAtom("C", 2)), FamilyAtom("C", 2))

    def test_generator_literal(self):
        e = parse_group_expr("[(1 2 3), (1 2)]")
        assert isinstance(e, GensAtom)
        assert e.degree == 3
        assert len(e.cycles) == 2

    def test_round_trip_corpus(self):
        atoms = ["S3", "A5", "C6", "D10", "SL(2,4)", "PSL(2,7)",
                 "Borel(2,8)", "[(1 2 3), (1 2)]"]
        corpus = list(atoms)
        for a in atoms:
            for b in atoms[:4]:
                corpus.append(f"{a} x {b}")
                corpus.append(f"{a} wr {b}")
                corpus.append(f"({a} x {b}) wr C2")
                corpus.append(f"C2 wr ({a} x {b})")
        assert len(corpus) > 100
        for text in corpus:
            e = parse_group_expr(text)
            assert parse_group_expr(str(e)) == e

    def test_canonical_texts_print_verbatim(self):
        for text in ["A5", "SL(2,8)", "S3 x C2", "C3 wr C3",
                     "(S3 x C2) wr C2", "C2 wr (C2 wr C2)", "C2 x (C2 x C2)",
                     "[(1 2 3), (1 2)]"]:
            assert str(parse_group_expr(text)) == text

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("", 0),
            ("x C2", 0),
            ("Q3", 0),
            ("S3 )", 3),
            ("S3 x", 4),
            ("(S3", 3),
            ("SL(3,4)", 3),
            ("SL(2 8)", 5),
            ("SL2(2,4)", 2),
            ("[(1 2", 0),
            ("123", 0),
            ("S3 C2", 3),
            ("S@", 1),
            ("SL(2@", 4),
            ("S x C2", 2),
            ("SL(x,4)", 3),
            ("PSL(2,", 6),
            ("[(1 2), ]", 0),
            ("[(1 2)(2 3)]", 0),
            ("S3 @ C2", 3),
            # offsets count characters: the em space is one, not three bytes
            ("C2\u2003x @", 5),
            # one level past MAX_DEPTH: the offending (, x or wr
            pytest.param("(" * (MAX_DEPTH + 1) + "C2" + ")" * (MAX_DEPTH + 1),
                         MAX_DEPTH, id="deep-parentheses"),
            pytest.param(" x ".join(["C1"] * (MAX_DEPTH + 2)), 5 * (MAX_DEPTH + 1) - 2,
                         id="deep-product"),
            pytest.param(" wr ".join(["C1"] * (MAX_DEPTH + 2)), 6 * (MAX_DEPTH + 1) - 3,
                         id="deep-wreath"),
            pytest.param("C1 x (" * MAX_DEPTH + "C1 wr C1" + ")" * MAX_DEPTH, 3,
                         id="deep-mixed"),
        ],
    )
    def test_syntax_errors_carry_offsets(self, text, offset):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_group_expr(text)
        assert exc.value.offset == offset

    @settings(max_examples=300)
    @given(EXPRS)
    def test_printed_tree_parses_back(self, e):
        assert parse_group_expr(str(e)) == e

    @settings(max_examples=500)
    @given(st.one_of(st.lists(st.sampled_from(TOKENS)).map("".join),
                     st.text(st.sampled_from(ALPHABET))))
    def test_any_text_parses_or_refuses_with_an_offset(self, text):
        try:
            parse_group_expr(text)
        except ExprSyntaxError as err:
            assert 0 <= err.offset <= len(text)

    def test_depth_at_the_limit_builds(self):
        # parentheses and x/wr levels both at the limit, together
        text = "C1 x (" * MAX_DEPTH + "C1" + ")" * MAX_DEPTH
        assert construct_text(text).order() == 1
        text = "(" * MAX_DEPTH + " wr ".join(["C1"] * (MAX_DEPTH + 1)) + ")" * MAX_DEPTH
        assert str(parse_group_expr(text)) == " wr ".join(["C1"] * (MAX_DEPTH + 1))


def _construct_cap(monkeypatch, n):
    """Set the construction limit to n: the cap override alone cannot
    lower it below ``config.DEFAULT_CONSTRUCT_CAP``."""
    monkeypatch.setattr(config, "override", n)
    monkeypatch.setattr(config, "DEFAULT_CONSTRUCT_CAP", n)


class TestConstruct:
    @pytest.mark.parametrize(
        "text, degree, order",
        [
            ("S1", 1, 1),
            ("S2", 2, 2),
            ("S4", 4, 24),
            ("A2", 2, 1),
            ("A3", 3, 3),
            ("A4", 4, 12),
            ("C1", 1, 1),
            ("C7", 7, 7),
            ("D6", 3, 6),
            ("D14", 7, 14),
            ("SL(2,2)", 3, 6),
            ("SL(2,4)", 15, 60),
            ("SL(2,5)", 24, 120),
            ("SL(2,9)", 80, 720),
            ("PSL(2,5)", 6, 60),
            ("PSL(2,7)", 8, 168),
            ("PSL(2,9)", 10, 360),
            ("Borel(2,4)", 15, 12),
            ("Borel(2,8)", 63, 56),
            ("SL(2,17)", 288, 4896),
            ("SL(2,25)", 624, 15600),
            ("Borel(2,25)", 624, 600),
            ("Borel(2,27)", 728, 702),
            ("C3 wr C3", 9, 81),
            ("C2 wr C2", 4, 8),
            ("S3 x C2", 5, 12),
            ("(S3 x C2) wr C2", 10, 288),
            ("[(1 2 3), (1 2)]", 3, 6),
            ("[(1 2)(4 5)]", 5, 2),
            ("[()]", 1, 1),
        ],
    )
    def test_degree_and_order(self, text, degree, order):
        G = construct_text(text)
        assert G.degree == degree
        assert G.order() == order

    @pytest.mark.parametrize("q", FIELD_SIZES)
    def test_psl2_over_every_field(self, q):
        G = construct_text(f"PSL(2,{q})")
        assert G.degree == q + 1
        assert G.order() == q * (q * q - 1) // math.gcd(2, q - 1)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_alternating_orders(self, n):
        assert construct_text(f"A{n}").order() == math.factorial(n) // 2

    def test_predicted_order_matches(self):
        for text in ["S6", "A7", "C9", "D12", "SL(2,8)", "PSL(2,13)",
                     "Borel(2,9)", "C2 wr C5", "S3 x S4"]:
            e = parse_group_expr(text)
            assert predicted_order(e) == construct(e).order()
            assert degree_of(e) == construct(e).degree

    def test_literal_order_not_predicted(self):
        assert predicted_order(parse_group_expr("[(1 2)]")) is None

    def test_wreath_with_a_literal_is_not_predicted(self):
        e = parse_group_expr("[(1 2)] wr C3")
        assert predicted_order(e) is None
        assert construct(e).order() == 24

    def test_d6_equals_s3(self):
        assert set(construct_text("D6").elements()) == set(symmetric(3).elements())

    def test_psl24_equals_a5(self):
        G = construct_text("PSL(2,4)")
        assert set(G.elements()) == set(alternating(5).elements())

    def test_wreath_c2_c2_is_dihedral(self):
        G = construct_text("C2 wr C2")
        assert sorted(x.order() for x in G.elements()) == sorted(
            x.order() for x in dihedral(4).elements())

    def test_product_factors_commute(self):
        G = construct_text("S3 x S3")
        a = [g for g in G.generators if all(g(i) == i for i in range(4, 7))]
        b = [g for g in G.generators if all(g(i) == i for i in range(1, 4))]
        assert a and b
        for x in a:
            for y in b:
                assert x * y == y * x

    def test_borel_is_subgroup_of_sl(self):
        assert is_subgroup(construct_text("Borel(2,8)"), construct_text("SL(2,8)"))

    def test_cap_on_predicted_order(self, monkeypatch):
        with monkeypatch.context() as m, pytest.raises(CapExceeded) as exc:
            _construct_cap(m, 50)
            construct_text("C3 wr C3")
        assert exc.value.required == 81
        with pytest.raises(CapExceeded):
            construct_text("S5 wr S5")  # predicted order far above default cap

    @pytest.mark.parametrize("text, cap, required", [
        ("S5", 119, 120), ("A5", 59, 60), ("S6", 100, None), ("A6", 100, None),
        ("C3 wr C3", 80, 81), ("C3 wr C3", 26, 81), ("C2 wr C2 wr C2", 127, 128),
        ("S3 x C2", 11, 12), ("S4 x C2", 20, None), ("[(1 2)] x S5", 100, None),
        ("S5 wr [(1 2)]", 100, None), ("C2 wr C8", 100, None)])
    def test_refusal_is_exact_where_the_order_is_computed(self, text, cap, required, monkeypatch):
        """An order computed in full is reported exactly; an operand, a
        partial factorial or a wreath power past the cap stops the
        computation, and the refusal reads "more than" the cap."""
        _construct_cap(monkeypatch, cap)
        with pytest.raises(CapExceeded) as exc:
            construct_text(text)
        assert exc.value.required == required
        needs = f"more than {cap}" if required is None else required
        assert str(exc.value) == f"constructed group order: needs {needs}, cap is {cap}"

    @pytest.mark.parametrize("text", ["S13", "A13", "C3 wr C3 wr C3", "C2 wr S5"])
    def test_predicted_order_within_the_limit_is_exact(self, text):
        e = parse_group_expr(text)
        assert predicted_order(e, predicted_order(e)) == predicted_order(e)

    @pytest.mark.parametrize("text", ["SL(2,6)", "PSL(2,64)", "Borel(2,10)", "SL(2,37)", "Borel(2,49)"])
    def test_unsupported_field(self, text):
        with pytest.raises(UnsupportedField):
            construct_text(text)

    @pytest.mark.parametrize("text", ["D7", "D4", "D2", "C0", "S0"])
    def test_unsupported_degree(self, text):
        with pytest.raises(UnsupportedDegree):
            construct_text(text)


class TestCatalog:
    def test_entries_build_with_declared_orders(self):
        for entry in CATALOG:
            G = entry.build()
            assert G.order() == entry.order
            assert G.degree == degree_of(entry.expr())

    def test_labels_unique(self):
        labels = [e.label for e in CATALOG]
        assert len(labels) == len(set(labels))

    def test_upto_filter(self):
        small = catalog_upto(500)
        assert all(e.order <= 500 for e in small)
        assert {"A6", "PSL(2,7)", "C3wrC3"} <= {e.label for e in small}
        assert "SL(2,8)" not in {e.label for e in small}
        assert len(CATALOG) - len(small) == 3  # SL(2,8), A8, A9

    def test_lookup(self):
        assert catalog_entry("A5").order == 60
        with pytest.raises(KeyError):
            catalog_entry("M11")

    def test_exclusion_flags(self):
        # p = 2 never has an excluded factor
        assert all(e.exclusions_clear(2) for e in CATALOG)
        for label in ["A5", "SL(2,4)", "PSL(2,5)", "SL(2,5)", "S5"]:
            assert not catalog_entry(label).exclusions_clear(3)
        assert not catalog_entry("SL(2,8)").exclusions_clear(7)
        assert not catalog_entry("A8").exclusions_clear(5)
        assert catalog_entry("A8").exclusions_clear(7)
        assert not catalog_entry("A9").exclusions_clear(7)
        assert catalog_entry("A6").exclusions_clear(3)
        assert catalog_entry("A6").exclusions_clear(5)
        # solvable entries are clear at every prime
        for label in ["S3", "D8", "C3wrC3", "Borel(2,8)", "F21"]:
            e = catalog_entry(label)
            assert all(e.exclusions_clear(p) for p in (2, 3, 5, 7))

    def test_entry_is_frozen(self):
        with pytest.raises(AttributeError):
            catalog_entry("A5").order = 61

    def test_q8_has_unique_involution(self):
        G = catalog_entry("Q8").build()
        assert sorted(x.order() for x in G.elements()) == [1, 2, 4, 4, 4, 4, 4, 4]

    # sha256 of the generators' image tables, frozen: Borel(2,q) is generated
    # by the upper triangular matrices among SL(2,q)'s generators
    @pytest.mark.parametrize("label, digest", [
        ("Borel(2,4)", "15484e0800c2240b0b73e0da1e1c53642346286139fe3d66899c42c8221f6e02"),
        ("Borel(2,8)", "62fb6aeae5aac18cd476c7e28b3277ed02c778e7be50e694d124db981fd28543"),
        ("Borel(2,9)", "5df746cd932f388ef7d9521e404fd36e332989d6458723235412d7ad8ef4282a"),
    ])
    def test_borel_generators_frozen(self, label, digest):
        assert {e.label for e in CATALOG if e.label.startswith("Borel")} == {
            "Borel(2,4)", "Borel(2,8)", "Borel(2,9)"}
        gens = catalog_entry(label).build().generators
        assert len(gens) == 3
        assert hashlib.sha256(repr([g.images for g in gens]).encode()).hexdigest() == digest

    def test_f21_is_frobenius_of_order_21(self):
        G = catalog_entry("F21").build()
        assert G.order() == 21
        assert sorted(x.order() for x in G.elements()).count(7) == 6
