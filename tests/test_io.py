"""JSON documents: the whole-array fields against the per-entry oracle,
malformed documents through the CLI, and round-trip properties."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnahm
import dnahm.io as dio
from dnahm.cli import main

import helpers
import oracles

# -0.0, the smallest subnormal and the largest finite double
EXTREMES = (-0.0, 5e-324, 1.7976931348623157e308)


def with_extremes(matrices):
    """The matrices with their first three doubles replaced by EXTREMES."""
    stack = np.array(matrices)
    stack.view(float).reshape(-1)[: len(EXTREMES)] = EXTREMES
    return tuple(dnahm.cmatrix(m) for m in stack)


def random_ba(rng, k, n, scale=1.0):
    return dnahm.BAChain(
        k=k,
        betas=tuple(helpers.random_cmatrix(rng, k, scale) for _ in range(n)),
        gammas=tuple(helpers.random_cmatrix(rng, k, scale) for _ in range(n - 1)),
        origin=int(rng.integers(-5, 5)),
    )


def chain_matrices(chain):
    if isinstance(chain, dnahm.BAChain):
        return [*chain.betas, *chain.gammas]
    return [m for s in chain.sites for m in (s.A, s.B, s.D)] + [
        m for l in chain.links for m in (l.Pplus, l.Pminus)
    ]


class TestWholeArrayFields:
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("form", ["ba", "dn"])
    def test_files_parse_to_the_oracles_doubles(self, k, form, tmp_path):
        rng = np.random.default_rng(100 + k)
        if form == "ba":
            ba = random_ba(rng, k, 4)
            chain = dnahm.BAChain(k=k, betas=with_extremes(ba.betas), gammas=ba.gammas,
                                  origin=ba.origin)
            metric = None
        else:
            dn = helpers.random_dn_chain(rng, k, 4, origin=3)
            chain = helpers.replace_site(dn, 0, A=with_extremes(
                [dn.sites[0].A, dn.sites[1].A])[0])
            metric = with_extremes([helpers.random_cmatrix(rng, k) for _ in range(4)])
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        dio.save_json(new, dio.chain_to_document(chain, metric=metric))
        oracles.save_json(old, oracles.chain_to_document(chain, metric=metric))
        new_doc, old_doc = json.loads(new.read_text()), json.loads(old.read_text())
        # float repr round-trips, so equal dumps mean equal doubles, bit for bit
        assert json.dumps(new_doc) == json.dumps(old_doc)
        # the new file is one line of compact JSON
        text = new.read_text()
        assert text.endswith("\n") and not any(c.isspace() for c in text[:-1])
        # a file in the stdlib's compact spelling reads back to the same values
        stdlib = tmp_path / "stdlib.json"
        stdlib.write_text(json.dumps(old_doc, separators=(",", ":")) + "\n")
        assert json.dumps(dio.load_json(stdlib)) == json.dumps(dio.load_json(new))
        # and the stacked reader gives the per-matrix reader's values, bit for bit
        parsed, parsed_metric = dio.document_to_chain(dio.load_json(stdlib))
        if form == "ba":
            fields = [*new_doc["betas"], *new_doc["gammas"]]
        else:
            fields = [s[f] for s in new_doc["sites"] for f in "ABD"]
            fields += [l[f] for l in new_doc["links"] for f in ("Pplus", "Pminus")]
        written = np.concatenate([np.ravel(f) for f in fields + new_doc.get("metric", [])])
        assert set(helpers.bits(np.array(EXTREMES))) <= set(helpers.bits(written))
        for got, pairs in zip(chain_matrices(parsed), fields, strict=True):
            assert not got.flags.writeable
            assert np.array_equal(helpers.bits(got), helpers.bits(oracles.matrix_from_pairs(pairs)))
        if metric is not None:
            for got, pairs in zip(parsed_metric, new_doc["metric"], strict=True):
                assert np.array_equal(helpers.bits(got),
                                      helpers.bits(oracles.matrix_from_pairs(pairs)))

    def test_surface_and_metric_fields_match_the_oracle(self):
        rng = np.random.default_rng(7)
        metric = [helpers.random_cmatrix(rng, 3) for _ in range(5)]
        assert dio.metric_to_document(metric, 3)["metric"] == [
            oracles.matrix_to_pairs(g) for g in metric
        ]
        surface = dnahm.char_surface(*(helpers.random_cmatrix(rng, 3) for _ in range(3)))
        assert dio.surface_to_grid(surface) == oracles.matrix_to_pairs(surface.c)

    def test_metric_document_without_k_takes_the_matrix_size(self):
        doc = dio.metric_to_document([np.eye(2)] * 3, 2)
        del doc["k"]
        assert all(np.array_equal(g, np.eye(2)) for g in dio.metric_from_document(doc))


def ba_text(betas="[[[[1.0, 0.0]]], [[[0.5, 0.0]]]]", gammas="[[[[2.0, 0.0]]]]", extra=""):
    return f'{{"k": 1, "form": "ba", "betas": {betas}, "gammas": {gammas}{extra}}}'


def dn_text(site1='{"A": [[[1, 0]]], "B": [[[1, 0]]], "D": [[[1, 0]]]}'):
    site0 = '{"A": [[[1, 0]]], "B": [[[1, 0]]], "D": [[[1, 0]]]}'
    return (f'{{"k": 1, "form": "dn", "sites": [{site0}, {site1}], '
            f'"links": [{{"Pplus": [[[1, 0]]], "Pminus": [[[1, 0]]]}}]}}')


MALFORMED = {
    "betas-not-a-list": ('{"k": 2, "form": "ba", "betas": 5, "gammas": []}', "'betas'"),
    "metric-not-a-list": (ba_text(extra=', "metric": 3'), "'metric'"),
    "site-not-an-object": (dn_text(site1="[1, 2]"), "sites[1]"),
    "site-missing-field": (dn_text(site1='{"A": [[[1, 0]]], "B": [[[1, 0]]]}'), "sites[1]"),
    "nan-entry": (ba_text(betas="[[[[1.0, 0.0]]], [[[0.5, NaN]]]]"), "betas[1]: entry [0][0]"),
    "inf-entry": (dn_text(site1='{"A": [[[1, 0]]], "B": [[[1, Infinity]]], "D": [[[1, 0]]]}'),
                  "sites[1].B: entry [0][0]"),
    "ragged-matrix": (ba_text(gammas="[[[[2.0, 0.0], [1.0]]]]"), "gammas[0]"),
    "non-numeric": (ba_text(gammas='[[[["x", 0.0]]]]'), "gammas[0]"),
    "wrong-size": (ba_text(betas="[[[[1.0, 0.0]]], [[[0.5, 0.0], [0.5, 0.0]]]]"), "betas[1]"),
    "integer-overflow": (ba_text(gammas="[[[[1" + "0" * 400 + ", 0.0]]]]"), "gammas[0]"),
    # orjson reads an integer beyond 64 bits as a double, the stdlib (which
    # parses the document when a NaN is in it) as a Python int
    "k-beyond-64-bits": (ba_text().replace('"k": 1', f'"k": {10**30}'), "'k' must be an integer"),
    "k-beyond-64-bits-nan": (ba_text(betas="[[[[NaN, 0.0]]]]").replace('"k": 1', f'"k": {10**30}'),
                             "'k' must be an integer"),
    "origin-beyond-2-53": (ba_text(extra=f', "origin": {2**53 + 1}'), "'origin' must be an integer"),
    "deep-nesting": (ba_text(betas="[" * 100_000 + "]" * 100_000), "betas[0]"),
    # the NaN sends the document to the stdlib parser, whose recursion limit it exceeds
    "deep-nesting-nan": (ba_text(betas="[" * 100_000 + "]" * 100_000, gammas="[[[[NaN, 0.0]]]]"),
                         "cannot read JSON"),
    "not-utf-8": (b'{"k": 1, "form": "ba", "note": "\xff"}', "cannot read JSON"),
    "k-zero": ('{"k": 0, "form": "ba", "betas": [], "gammas": []}', "k >= 1"),
    "k-float": (ba_text().replace('"k": 1', '"k": 2.5'), "'k' must be an integer"),
    "k-string": (ba_text().replace('"k": 1', '"k": "2"'), "'k' must be an integer"),
    "k-bool": (ba_text().replace('"k": 1', '"k": true'), "'k' must be an integer"),
    "origin-float": (ba_text(extra=', "origin": 1.7'), "'origin' must be an integer"),
    "origin-string": (ba_text(extra=', "origin": "1"'), "'origin' must be an integer"),
    "origin-bool": (dn_text().replace('"k": 1', '"k": 1, "origin": false'),
                    "'origin' must be an integer"),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("case", MALFORMED, ids=list(MALFORMED))
    @pytest.mark.parametrize("command", ["evolve", "verify", "spectral"])
    def test_format_error_names_field_and_index(self, case, command, tmp_path, capsys):
        text, named = MALFORMED[case]
        bad = tmp_path / "bad.json"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "out.json"
        argv = {
            "evolve": ["evolve", "--in", str(bad), "--steps", "2", "--out", str(out)],
            "verify": ["verify", "--in", str(bad), "--report", str(out)],
            "spectral": ["spectral", "--in", str(bad), "--out", str(out)],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        diagnostic = json.loads(lines[0])
        assert diagnostic["error"] == "FormatError"
        assert named in diagnostic["message"]
        assert not out.exists()

    @pytest.mark.parametrize("k", ["2.5", '"2"', "true", "2.0"])
    def test_metric_k_must_be_an_integer(self, k, tmp_path, capsys):
        chain, metric = tmp_path / "trig.json", tmp_path / "metric.json"
        assert main(["example", "--p", "2", "--out", str(chain)]) == 0  # 4 sites, k = 2
        identities = json.dumps([[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]] * 4)
        metric.write_text(f'{{"k": {k}, "metric": {identities}}}')
        capsys.readouterr()
        report = tmp_path / "report.json"
        argv = ["verify", "--in", str(chain), "--metric", str(metric), "--report", str(report)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        diagnostic = json.loads(captured.err)
        assert diagnostic["error"] == "FormatError"
        assert "'k' must be an integer" in diagnostic["message"]
        assert not report.exists()


class TestSignedZeros:
    def test_pairs_read_back_bit_for_bit(self, tmp_path):
        pairs = [[-0.0, 0.0], [1.0, -0.0], [-0.0, -0.0]]
        doc = {"format_version": "1", "k": 1, "form": "ba", "origin": 0,
               "betas": [[[p]] for p in pairs], "gammas": [[[[2.0, 0.0]]]] * 2}
        path = tmp_path / "zeros.json"
        dio.save_json(path, doc)
        chain, _ = dio.document_to_chain(dio.load_json(path))
        want = np.array(pairs).view(complex).reshape(3, 1, 1)
        assert np.array_equal(helpers.bits(chain.betas), helpers.bits(want))
        dio.save_json(tmp_path / "again.json", dio.chain_to_document(chain))
        assert (tmp_path / "again.json").read_text() == path.read_text()
        row = dio.matrix_from_pairs([pairs])
        assert np.array_equal(helpers.bits(row), helpers.bits(want.reshape(1, 3)))


SCALES = st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300])


class TestJsonFiles:
    @settings(max_examples=40, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=SCALES)
    def test_save_then_load_bit_exact(self, seed, scale, tmp_path_factory):
        rng = np.random.default_rng(seed)
        patterns = rng.integers(0, 2**64, 64, dtype=np.uint64, endpoint=False).view(float)
        subnormals = rng.integers(1, 2**52, 8) * 5e-324
        values = np.concatenate([
            scale * rng.standard_normal(64), EXTREMES, [0.0, -0.0], subnormals, -subnormals,
            patterns[np.isfinite(patterns)],
        ])
        path = tmp_path_factory.getbasetemp() / "values.json"
        # a numpy float64 serialises as json.dumps wrote it: a plain number
        dio.save_json(path, {"values": values.tolist(), "scalars": list(values[:8])})
        for doc in (dio.load_json(path), json.loads(path.read_text())):
            assert np.array_equal(helpers.bits(np.array(doc["values"])), helpers.bits(values))
            assert np.array_equal(helpers.bits(np.array(doc["scalars"])), helpers.bits(values[:8]))

    def test_non_finite_values_are_written_as_null(self, tmp_path):
        path = tmp_path / "report.json"
        dio.save_json(path, {"max": float("nan"), "drift": [np.inf, np.float64(-np.inf), 1e16]})
        assert path.read_text() == '{"max":null,"drift":[null,null,1e16]}\n'


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None, database=None)
    @given(k=st.integers(1, 6), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           scale=SCALES)
    def test_ba_json_ba_bit_exact(self, k, n, seed, scale):
        ba = random_ba(np.random.default_rng(seed), k, n, scale)
        text = json.dumps(dio.chain_to_document(ba), separators=(",", ":"))
        again, metric = dio.document_to_chain(json.loads(text))
        assert metric is None and again.origin == ba.origin
        for got, want in zip(chain_matrices(again), chain_matrices(ba), strict=True):
            assert np.array_equal(helpers.bits(got), helpers.bits(want))

    @settings(max_examples=40, deadline=None, database=None)
    @given(k=st.integers(1, 6), n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_dn_ba_dn_json_bit_exact(self, k, n, seed):
        rng = np.random.default_rng(seed)
        ba = random_ba(rng, k, n)
        # gammas near 3 I keep from_braam_austin's invertibility check passing
        ba = dnahm.BAChain(k=k, betas=ba.betas, origin=ba.origin,
                           gammas=tuple(dnahm.cmatrix(3 * np.eye(k) + g) for g in ba.gammas))
        dn = dnahm.from_braam_austin(ba)
        again = dnahm.from_braam_austin(dnahm.to_braam_austin(dn))
        text = json.dumps(dio.chain_to_document(again))
        parsed, _ = dio.document_to_chain(json.loads(text))
        for got, want in zip(chain_matrices(parsed), chain_matrices(dn), strict=True):
            assert np.array_equal(helpers.bits(got), helpers.bits(want))
        assert json.dumps(dio.chain_to_document(parsed)) == text
