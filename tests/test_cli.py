"""End-to-end tests of the command-line interface and serialization."""

import argparse
import json
import tracemalloc

import numpy as np
import pytest

import dnahm
import dnahm.io as dio
from dnahm.cli import main

import helpers
import oracles


class TestSerialization:
    def test_chain_document_round_trip_bit_exact(self):
        ba, _ = helpers.evolved_chain(2, seed=1, steps=5)
        doc = dio.chain_to_document(ba)
        rebuilt, _ = dio.document_to_chain(json.loads(json.dumps(doc)))
        assert all(np.array_equal(a, b) for a, b in zip(rebuilt.betas, ba.betas))
        assert all(np.array_equal(a, b) for a, b in zip(rebuilt.gammas, ba.gammas))
        assert dio.chain_to_document(rebuilt) == doc

    def test_dn_document_round_trip(self):
        chain, metric = dnahm.trig_solution(2)
        doc = dio.chain_to_document(chain, metric=metric)
        rebuilt, metric2 = dio.document_to_chain(json.loads(json.dumps(doc)))
        assert rebuilt.r0 == 1
        for s, t in zip(chain.sites, rebuilt.sites):
            assert np.array_equal(s.A, t.A) and np.array_equal(s.B, t.B)
        assert all(np.array_equal(a, b) for a, b in zip(metric, metric2))

    def test_malformed_documents(self):
        with pytest.raises(dnahm.errors.FormatError):
            dio.document_to_chain({"form": "dn"})
        with pytest.raises(dnahm.errors.FormatError):
            dio.document_to_chain({"form": "nope", "k": 1})


class TestExampleCommand:
    def test_p1(self, tmp_path):
        out = tmp_path / "trig.json"
        assert main(["example", "--p", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["sites"]) == 2 and len(doc["links"]) == 1
        assert doc["metadata"]["boundary_ranks"] == [1, 1]

    def test_p2_metadata(self, tmp_path):
        out = tmp_path / "trig.json"
        assert main(["example", "--p", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["sites"]) == 4
        assert doc["metadata"]["boundary_ranks"] == [1, 1]

    def test_invalid_mass_exit_2(self, tmp_path, capsys):
        code = main(["example", "--p", "0.75", "--out", str(tmp_path / "x.json")])
        assert code == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "InvalidMass"

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_non_finite_mass_exit_2(self, p, tmp_path, capsys):
        out = tmp_path / "x.json"
        message = typed_exit_2(["example", "--p", p, "--out", str(out)], capsys, "InvalidMass")
        assert p in message
        assert not out.exists()

    def test_mass_beyond_the_site_limit_exit_2_without_allocating(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        tracemalloc.start()
        try:
            message = typed_exit_2(["example", "--p", "1e300", "--out", str(out)], capsys,
                                   "InvalidMass")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(dnahm.fixtures.TRIG_MAX_SITES) in message
        assert peak < 1e6
        assert not out.exists()


class TestEvolveCommand:
    def test_scalar_seed_ten_steps(self, tmp_path):
        seed = tmp_path / "seed.json"
        ba = dnahm.BAChain(
            k=1, betas=(dnahm.cmatrix([[5j]]), dnahm.cmatrix([[5j]])), gammas=(dnahm.cmatrix([[2.0]]),)
        )
        dio.save_json(seed, dio.chain_to_document(ba))
        out = tmp_path / "chain.json"
        assert main(["evolve", "--in", str(seed), "--steps", "10", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["betas"]) == 11 and len(doc["gammas"]) == 10

    def test_breakdown_exit_3(self, tmp_path, capsys):
        seed = tmp_path / "seed.json"
        ba = dnahm.BAChain(
            k=2,
            betas=(dnahm.cmatrix([[0.0, 1.0], [0.0, 0.0]]),) * 2,
            gammas=(dnahm.cmatrix(0.1 * np.eye(2)),),
        )
        dio.save_json(seed, dio.chain_to_document(ba))
        out = tmp_path / "chain.json"
        code = main(["evolve", "--in", str(seed), "--steps", "5", "--out", str(out)])
        assert code == 3
        diag = json.loads(capsys.readouterr().err)
        assert diag["breakdown_at"] == 0
        assert out.exists()  # partial chain written

    @pytest.mark.parametrize("backward, breakdown_at", [(False, 0), (True, -1)])
    def test_seed_exactly_at_breakdown_exit_3(self, backward, breakdown_at, tmp_path, capsys):
        # gamma = I and beta = E_12 put lambda_min of the first step matrix at 0:
        # H = I -+ [beta*, beta] = I -+ diag(-1, 1)
        seed = tmp_path / "seed.json"
        ba = dnahm.BAChain(k=2, betas=(dnahm.cmatrix([[0.0, 1.0], [0.0, 0.0]]),) * 2,
                           gammas=(dnahm.cmatrix(np.eye(2)),))
        dio.save_json(seed, dio.chain_to_document(ba))
        out = tmp_path / "chain.json"
        argv = ["evolve", "--in", str(seed), "--steps", "5", "--out", str(out)]
        assert main(argv + ["--backward"] * backward) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert (diag["breakdown_at"], diag["links"]) == (breakdown_at, 1)
        assert len(dio.load_json(out)["gammas"]) == 1

    def test_overflowing_step_matrix_is_a_breakdown(self, tmp_path, capsys):
        # gamma = 1e200 I: gamma* gamma overflows the doubles on the first step
        seed = tmp_path / "seed.json"
        ba = dnahm.BAChain(k=2, betas=(dnahm.cmatrix(np.zeros((2, 2))),) * 2,
                           gammas=(dnahm.cmatrix(1e200 * np.eye(2)),))
        dio.save_json(seed, dio.chain_to_document(ba))
        out = tmp_path / "chain.json"
        assert main(["evolve", "--in", str(seed), "--steps", "5", "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert (diag["breakdown_at"], diag["links"]) == (0, 1)

    def test_huge_step_count_stops_at_the_breakdown(self, tmp_path, capsys):
        # the step loop allocates per step taken, never for the count asked
        out = tmp_path / "chain.json"
        assert main(["evolve", "--random-k", "2", "--seed", "1", "--spread", "0.3",
                     "--steps", str(10**18), "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert (diag["breakdown_at"], diag["links"]) == (4, 5)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "x"])
    def test_spread_must_be_finite_and_non_negative(self, value, tmp_path, capsys):
        out = tmp_path / "x.json"
        message = typed_exit_2(["evolve", "--random-k", "2", "--spread", value, "--steps", "3",
                                "--out", str(out)], capsys, "UsageError")
        assert "--spread" in message
        assert not out.exists()

    def test_overflowing_spread_leaves_one_diagnostic_line(self, tmp_path, capsys):
        # every draw overflows the first step matrix, however often it is shrunk
        out = tmp_path / "x.json"
        typed_exit_2(["evolve", "--random-k", "2", "--spread", "1e300", "--steps", "3",
                      "--out", str(out)], capsys, "SeedExhausted")
        assert not out.exists()

    def test_random_seed_deterministic(self, tmp_path):
        args = ["evolve", "--random-k", "2", "--seed", "42", "--spread", "0.05",
                "--steps", "8", "--out"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + [str(out1)]) == 0
        assert main(args + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_backward_from_chain_end(self, tmp_path):
        fwd = tmp_path / "fwd.json"
        assert main(["evolve", "--random-k", "2", "--seed", "7", "--spread", "0.04",
                     "--steps", "6", "--out", str(fwd)]) == 0
        back = tmp_path / "back.json"
        assert main(["evolve", "--in", str(fwd), "--backward", "--steps", "6",
                     "--out", str(back)]) == 0
        fwd_chain, _ = dio.document_to_chain(json.loads(fwd.read_text()))
        back_chain, _ = dio.document_to_chain(json.loads(back.read_text()))
        assert back_chain.origin == -6
        for a, b in zip(back_chain.gammas, fwd_chain.gammas):
            assert dnahm.max_abs(a - b) < 1e-9

    def test_dn_form_input_seeds_from_first_link(self, tmp_path):
        path = tmp_path / "dn.json"
        dio.save_json(path, dio.chain_to_document(helpers.gauged_trig(2)))
        out = tmp_path / "out.json"
        assert main(["evolve", "--in", str(path), "--steps", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["betas"]) == 4

    def test_usage_error(self, tmp_path, capsys):
        code = main(["evolve", "--steps", "3", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "UsageError" in capsys.readouterr().err

    def test_singular_seed_gamma_exit_2(self, tmp_path, capsys):
        seed = tmp_path / "seed.json"
        ba = dnahm.BAChain(
            k=2,
            betas=(dnahm.cmatrix(np.zeros((2, 2))),) * 2,
            gammas=(dnahm.cmatrix([[1.0, 2.0], [2.0, 4.0]]),),
        )
        dio.save_json(seed, dio.chain_to_document(ba))
        out = tmp_path / "chain.json"
        code = main(["evolve", "--in", str(seed), "--steps", "5", "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "SingularGamma"
        assert not out.exists()


class TestVerifyCommand:
    def test_trig_chain_passes(self, tmp_path):
        chain_path = tmp_path / "trig.json"
        main(["example", "--p", "2", "--out", str(chain_path)])
        report_path = tmp_path / "report.json"
        assert main(["verify", "--in", str(chain_path), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert report["checks"]["dn_residuals"]["max"] < 1e-13
        assert report["checks"]["reality_residual"] < 1e-13
        assert report["checks"]["boundary_ranks"] == {"left": 1, "right": 1}
        assert report["checks"]["lax_commutator"]["max"] < 1e-12

    def test_perturbed_chain_fails_naming_residual(self, tmp_path, capsys):
        chain, _ = dnahm.trig_solution(2)
        bad = helpers.replace_site(
            chain, 1, A=helpers.perturb_entry(chain.sites[1].A, 0, 0, 1e-4)
        )
        chain_path = tmp_path / "bad.json"
        dio.save_json(chain_path, dio.chain_to_document(bad))
        report_path = tmp_path / "report.json"
        code = main(["verify", "--in", str(chain_path), "--report", str(report_path)])
        assert code == 1
        diag = json.loads(capsys.readouterr().err)
        assert "dn_residuals" in diag["failures"]

    def test_scalar_chain_passes(self, tmp_path):
        chain = dnahm.scalar_solution(-3j, -13.0, -3j, -2.0, 2.0, length=4)
        chain_path = tmp_path / "scalar.json"
        dio.save_json(chain_path, dio.chain_to_document(chain))
        report_path = tmp_path / "report.json"
        assert main(["verify", "--in", str(chain_path), "--report", str(report_path)]) == 0

    def test_ba_form_input_reports_both_families(self, tmp_path):
        chain_path = tmp_path / "ba.json"
        main(["evolve", "--random-k", "2", "--seed", "5", "--spread", "0.04",
              "--steps", "8", "--out", str(chain_path)])
        report_path = tmp_path / "report.json"
        assert main(["verify", "--in", str(chain_path), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["checks"]["ba_residuals"]["max"] < 1e-11
        assert report["checks"]["dn_residuals"]["max"] < 1e-11

    def test_two_site_chain_skips_lax(self, tmp_path):
        chain_path = tmp_path / "trig1.json"
        main(["example", "--p", "1", "--out", str(chain_path)])
        report_path = tmp_path / "report.json"
        assert main(["verify", "--in", str(chain_path), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert "skipped" in report["checks"]["lax_commutator"]

    @pytest.mark.parametrize(
        "sites, failures, ranks",
        [
            (3, ["dn_residuals", "lax_commutator", "m_factorization"], {"left": 0, "right": 0}),
            (4, ["dn_residuals", "lax_commutator", "m_factorization"], None),
        ],
    )
    def test_overflowing_products_fail_with_one_diagnostic_line(
        self, sites, failures, ranks, tmp_path, capsys
    ):
        # every entry is finite, but P- A, and at 4 sites A D and P- P+, overflow;
        # at 4 sites so does the boundary matrix B - DA, whose ranks are then null
        zeros, ones = np.zeros((sites, 1, 1)), np.ones((sites - 1, 1, 1))
        if sites == 3:
            a, d, pplus, pminus = [[[1e200]], [[1e200]], [[0.0]]], zeros, ones, [[[1e200]], [[1.0]]]
        else:
            a = d = np.full((sites, 1, 1), 1e200)
            pplus = pminus = 1e200 * ones
        chain = dnahm.DNChain(1, a, zeros, d, pplus, pminus)
        chain_path, report_path = tmp_path / "huge.json", tmp_path / "report.json"
        dio.save_json(chain_path, dio.chain_to_document(chain))
        assert main(["verify", "--in", str(chain_path), "--report", str(report_path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["failures"] == failures
        report = json.loads(report_path.read_text())
        assert report["checks"]["dn_residuals"]["max"] is None  # a NaN residual
        assert report["checks"]["boundary_ranks"] == ranks

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--in", str(bad), "--report", str(tmp_path / "r.json")]) == 2


def typed_exit_2(argv, capsys, error):
    """Run argv; it must exit 2 with one JSON line on stderr naming ``error``."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == error
    return doc["message"]


class TestVerifyMetricErrors:
    @pytest.mark.parametrize("metric, error, named", [
        ([[[1.0, 0.5], [0.0, 1.0]]] * 4, "NotHermitian", "not Hermitian"),
        ([[[1.0, 0.0], [0.0, -1.0]]] * 4, "NotPositiveDefinite", "lambda_min = -1"),
        ([np.eye(3)] * 4, "DimensionMismatch", "(4, 3, 3)"),
        ([np.eye(2)] * 3, "DimensionMismatch", "(3, 2, 2)"),
        ([np.eye(2)] * 5, "DimensionMismatch", "(5, 2, 2)"),
    ], ids=["not-hermitian", "not-positive", "wrong-k", "too-few", "too-many"])
    def test_bad_metric_is_typed_exit_2(self, metric, error, named, tmp_path, capsys):
        chain_path, metric_path = tmp_path / "trig.json", tmp_path / "metric.json"
        main(["example", "--p", "2", "--out", str(chain_path)])  # 4 sites, k = 2
        metric = np.array(metric, dtype=complex)
        dio.save_json(metric_path, {"k": metric.shape[-1],
                                    "metric": [oracles.matrix_to_pairs(g) for g in metric]})
        capsys.readouterr()
        report = tmp_path / "report.json"
        message = typed_exit_2(["verify", "--in", str(chain_path), "--metric", str(metric_path),
                                "--report", str(report)], capsys, error)
        assert named in message
        assert not report.exists()


class TestSpectralCommand:
    def test_lost_normalization_is_typed_exit_2(self, tmp_path, capsys):
        # |A| = 1e8 swamps the identity block that fixes c[0][k] = 1
        ones, zeros = np.ones((2, 2, 2)), np.zeros((2, 2, 2))
        chain = dnahm.DNChain(2, 1e8 * ones, zeros, zeros, zeros[:1], zeros[:1])
        chain_path, out = tmp_path / "big.json", tmp_path / "surface.json"
        dio.save_json(chain_path, dio.chain_to_document(chain))
        message = typed_exit_2(["spectral", "--in", str(chain_path), "--out", str(out)],
                               capsys, "NoConvergence")
        assert "identity-block normalization at stacked site 0" in message
        assert not out.exists()

    def test_overflowing_determinant_is_typed_exit_2(self, tmp_path, capsys):
        # finite entries, but det(eta zeta A) ~ 1e400 is past the doubles: the
        # non-finite grid is refused, with no RuntimeWarning on stderr
        zeros = np.zeros((2, 2, 2))
        chain = dnahm.DNChain(2, 1e200 * np.array([np.eye(2)] * 2), zeros, zeros,
                              zeros[:1], zeros[:1])
        chain_path, out = tmp_path / "huge.json", tmp_path / "surface.json"
        dio.save_json(chain_path, dio.chain_to_document(chain))
        message = typed_exit_2(["spectral", "--in", str(chain_path), "--out", str(out)],
                               capsys, "DimensionMismatch")
        assert message == "coefficient grid entries must be finite"
        assert not out.exists()

    def test_trig_surface_value(self, tmp_path):
        chain_path = tmp_path / "trig.json"
        main(["example", "--p", "1", "--out", str(chain_path)])
        out = tmp_path / "surface.json"
        drift = tmp_path / "drift.csv"
        assert main(["spectral", "--in", str(chain_path), "--out", str(out),
                     "--drift", str(drift), "--samples", "8", "--antidiagonal", "8"]) == 0
        doc = json.loads(out.read_text())
        c = oracles.matrix_from_pairs(doc["surfaces"][0], "surface")
        assert c[1, 1] == pytest.approx(-np.sqrt(2), abs=1e-12)
        assert doc["antidiagonal_clearance"] > 0.5
        lines = drift.read_text().strip().splitlines()
        assert lines[0] == "site,max_abs_drift"
        assert len(lines) == 3

    def test_one_surface_object_per_run(self, tmp_path, monkeypatch):
        # the site grids stay one array; only site 0's curve diagnostics
        # build a SpectralSurface
        built = []
        check = dnahm.SpectralSurface.__post_init__
        monkeypatch.setattr(dnahm.SpectralSurface, "__post_init__",
                            lambda self: (built.append(self), check(self)))
        chain_path, out = tmp_path / "trig.json", tmp_path / "surface.json"
        main(["example", "--p", "5", "--out", str(chain_path)])
        assert main(["spectral", "--in", str(chain_path), "--out", str(out),
                     "--samples", "8", "--antidiagonal", "8"]) == 0
        assert len(built) == 1
        doc = json.loads(out.read_text())
        assert np.array_equal(oracles.matrix_from_pairs(doc["surfaces"][0], "surface"), built[0].c)

    def test_evolved_chain_drift_small(self, tmp_path):
        chain_path = tmp_path / "chain.json"
        main(["evolve", "--random-k", "2", "--seed", "3", "--spread", "0.04",
              "--steps", "12", "--out", str(chain_path)])
        out = tmp_path / "surface.json"
        assert main(["spectral", "--in", str(chain_path), "--out", str(out),
                     "--samples", "0", "--antidiagonal", "0"]) == 0
        doc = json.loads(out.read_text())
        assert doc["drift"]["max"] < 1e-9
        # a count of 0 skips the curve samples and the anti-diagonal scan
        assert "samples" not in doc and "antidiagonal_clearance" not in doc


class TestContinuumCommand:
    def test_scaling_table(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["continuum", "--k", "2", "--h", "0.04,0.02", "--steps", "1200",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "h,R11,R12,ratio11,ratio12"
        last = lines[-1].split(",")
        assert 0.4 <= float(last[3]) <= 0.6 and 0.4 <= float(last[4]) <= 0.6

    def test_single_h_no_ratios(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["continuum", "--h", "0.04", "--steps", "600", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].endswith(",,")

    def test_bad_h_list_exit_2(self, tmp_path):
        assert main(["continuum", "--h", "abc", "--out", str(tmp_path / "t.csv")]) == 2

    @pytest.mark.parametrize("h", ["0.04,inf", "inf", "nan", "-0.04", "0.04,0"])
    def test_non_finite_or_non_positive_h_is_a_usage_error(self, h, tmp_path, capsys):
        assert main(["continuum", "--h", h, "--out", str(tmp_path / "t.csv")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "UsageError" and doc["message"].startswith("bad --h list")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "h, message",
        # numpy refuses a 1.1e301-node grid at once, without allocating;
        # 5e-324 would need more steps than a float holds
        [("1e-300", "cannot allocate"), ("5e-324", "needs more RK4 steps")],
    )
    def test_unallocatable_grid_exit_2(self, h, message, tmp_path, capsys):
        assert main(["continuum", "--h", h, "--out", str(tmp_path / "t.csv")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "ValueError" and message in doc["message"]
        assert list(tmp_path.iterdir()) == []

    def test_window_too_small_exit_2_before_integrating(self, tmp_path, capsys, monkeypatch):
        def integrate(*args):
            raise AssertionError("integrated before the window check")

        monkeypatch.setattr(dnahm.continuum, "integrate_nahm", integrate)
        assert main(["continuum", "--h", "0.5", "--out", str(tmp_path / "t.csv")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc == {"error": "ValueError", "message": "window too small for this h"}
        assert list(tmp_path.iterdir()) == []

    def test_flow_blow_up_is_typed_exit_2(self, tmp_path, capsys):
        # random_skew_triple keeps its scale at every k; at k = 40 the flow
        # has a pole inside the integration range [0, 1.12]
        out = tmp_path / "t.csv"
        assert main(["continuum", "--k", "40", "--h", "0.04", "--steps", "1", "--seed", "0",
                     "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "FlowBlowUp"
        z = float(doc["message"].rsplit("z = ", 1)[1])
        assert 0.0 < z <= 1.12
        assert not out.exists()

    def test_k1_zero_residuals_pass(self, tmp_path):
        # scalar flow is stationary, so the embedded residuals vanish exactly
        # and there is no scaling to band-check
        out = tmp_path / "table.csv"
        assert main(["continuum", "--k", "1", "--h", "0.04,0.02", "--steps", "400",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert float(lines[1].split(",")[1]) < 1e-14


class TestToleranceFlag:
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["evolve", "verify"])
    def test_non_finite_or_negative_tol_is_a_usage_error(self, command, value, tmp_path, capsys):
        # a chain that fails verification at any finite tolerance; every
        # comparison with a NaN one is false, which would report "passed": true.
        # evolve takes no --tol at all, so there it is refused as an unknown option
        chain, _ = dnahm.trig_solution(5)
        bad = helpers.replace_site(
            chain, 3, B=helpers.perturb_entry(chain.sites[3].B, 0, 0, 1e-3)
        )
        chain_path = tmp_path / "bad.json"
        dio.save_json(chain_path, dio.chain_to_document(bad))
        out = tmp_path / "out.json"
        flags = {"evolve": ["--steps", "5", "--out"], "verify": ["--report"]}[command]
        code = main([command, "--in", str(chain_path), *flags, str(out), "--tol", value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "UsageError" and "--tol" in diag["message"]
        assert not out.exists()

    def test_evolve_takes_no_tol(self, tmp_path, capsys):
        # evolve's breakdown rule is fixed, so even a valid --tol is an unknown option
        out = tmp_path / "x.json"
        message = typed_exit_2(["evolve", "--random-k", "2", "--seed", "1", "--steps", "5",
                                "--out", str(out), "--tol", "0"], capsys, "UsageError")
        assert "unrecognized arguments" in message
        assert not out.exists()

    def test_zero_tol_is_accepted(self, tmp_path):
        # evolve's breakdown rule is fixed; verify at tol 0 fails a chain whose
        # residuals sit at rounding level
        out = tmp_path / "x.json"
        assert main(["evolve", "--random-k", "2", "--seed", "1", "--spread", "0.05",
                     "--steps", "5", "--out", str(out)]) == 0
        assert main(["verify", "--in", str(out), "--report", str(tmp_path / "r.json"),
                     "--tol", "0"]) == 1


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nope"],
            ["spectral", "--in", "{tmp}/c.json", "--out", "{tmp}/s.json", "--jobs", "2"],
            ["continuum", "--h", "0.04", "--out", "{tmp}/t.csv", "--jobs", "2"],
            ["evolve", "--random-k", "0", "--steps", "3", "--out", "{tmp}/x.json"],
            ["evolve", "--random-k", "2", "--steps", "0", "--out", "{tmp}/x.json"],
            ["evolve", "--random-k", "2", "--out", "{tmp}/x.json"],
            ["continuum", "--k", "0", "--h", "0.04", "--out", "{tmp}/t.csv"],
            ["verify", "--in", "{tmp}/c.json", "--report", "{tmp}/r.json", "--tol", "abc"],
            ["spectral", "--in", "{tmp}/c.json", "--out", "{tmp}/s.json", "--samples", "-2"],
            ["spectral", "--in", "{tmp}/c.json", "--out", "{tmp}/s.json", "--antidiagonal", "-3"],
            ["continuum", "--h", "0.04", "--out", "{tmp}/t.csv", "--steps", "0"],
            ["evolve", "--random-k", "2", "--seed", "-1", "--steps", "3", "--out", "{tmp}/x.json"],
            ["continuum", "--h", "0.04", "--seed", "-1", "--out", "{tmp}/t.csv"],
        ],
        ids=["no-command", "unknown-command", "spectral-jobs", "continuum-jobs",
             "evolve-k0", "evolve-steps0", "evolve-no-steps", "continuum-k0", "bad-float",
             "spectral-samples-neg", "spectral-antidiagonal-neg", "continuum-steps0",
             "evolve-seed-neg", "continuum-seed-neg"],
    )
    def test_exit_2_with_one_json_line(self, argv, tmp_path, capsys):
        code = main([a.format(tmp=tmp_path) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "UsageError"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["evolve", "--help"]])
    def test_help_still_prints_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestParserReuse:
    def test_handler_is_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # a benchmark tracer rebinds cli.cmd_* after the first call: the
        # rebound attribute must be the one the next call runs
        chain_path = tmp_path / "trig.json"
        assert main(["example", "--p", "2", "--out", str(chain_path)]) == 0
        argv = ["verify", "--in", str(chain_path), "--report", str(tmp_path / "r.json")]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(dnahm.cli, "cmd_verify", lambda args: seen.append(args.infile) or 7)
        assert main(argv) == 7
        assert seen == [str(chain_path)]

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        built = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counting(self, **kwargs):
            built.append(self.prog)
            return add_subparsers(self, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
        dnahm.cli.build_parser.cache_clear()
        out = str(tmp_path / "trig.json")
        assert main(["example", "--p", "1", "--out", out]) == 0
        assert main(["verify", "--in", out, "--report", str(tmp_path / "r.json")]) == 0
        assert main(["nope"]) == 2
        assert built == ["dnahm"]
