import pytest

from mcdenoise import perf
from mcdenoise.errors import ContractError
from mcdenoise.model import (
    PAPER_PROPOSED_CONFIG,
    PAPER_UNET_CONFIG,
    NetworkGraph,
    ScaledConfig,
    build_proposed,
    build_unet_baseline,
)

DESK = ScaledConfig(8, 3, (32, 32, 16))


def test_conv_flops_formula_values():
    assert perf.conv_flops(1, (3, 3, 3), 64, (128, 128, 32)) == 1_811_939_328
    assert perf.conv_flops(1, (1, 1, 1), 1, (1, 1, 1)) == 2


def test_count_flops_total_equals_row_sum():
    net = build_proposed(DESK, seed=0)
    report = perf.count_flops(net, (32, 32, 16))
    assert report.total_flops == sum(r.flops for r in report.rows)
    assert report.total_params == sum(r.params for r in report.rows)
    assert all(r.flops >= 0 for r in report.rows)


def test_count_flops_reports_the_executed_gemm_flops_of_infer():
    # at 64x64x32 float32 infer runs the 16 -> 8 pyramid conv coarse-first, its GEMMs
    # on the 16x16x8 coarse grid: 1/8 of the defined FLOPs. A per-tap conv also
    # multiplies its phase grid's padding columns, so it executes at least its defined FLOPs
    net = build_proposed(ScaledConfig(8, 3, (64, 64, 32)), seed=0)
    report = perf.count_flops(net, (64, 64, 32))
    convs = [r for r in report.rows if r.kind == "conv"]
    coarse = [r for r in convs if r.executed_flops < r.flops]
    assert [(r.input_shape[1], r.output_shape[1]) for r in coarse] == [(16, 8)]
    assert 8 * coarse[0].executed_flops == coarse[0].flops
    assert all(r.executed_flops >= r.flops for r in convs if r not in coarse)
    assert all(r.executed_flops == 0 for r in report.rows if r.kind != "conv")
    assert report.total_executed_flops == sum(r.executed_flops for r in report.rows)
    assert report.csv_lines()[-1].split(",")[5:] == [
        str(report.total_flops), str(report.total_executed_flops), str(report.total_params)]


def test_count_flops_only_convs_cost():
    net = build_proposed(DESK, seed=0)
    report = perf.count_flops(net, (32, 32, 16))
    for row in report.rows:
        if row.kind != "conv":
            assert row.flops == 0


def test_count_flops_scales_with_volume():
    net = build_proposed(DESK, seed=0)
    small = perf.count_flops(net, (32, 32, 16)).total_flops
    big = perf.count_flops(net, (64, 64, 32)).total_flops
    assert big == 8 * small


def test_count_flops_additivity_over_layers():
    net = build_unet_baseline(DESK, seed=0)
    report = perf.count_flops(net, (32, 32, 16))
    by_stage = {}
    for row in report.rows:
        by_stage[row.stage] = by_stage.get(row.stage, 0) + row.flops
    assert sum(by_stage.values()) == report.total_flops


def test_count_flops_invalid_extents():
    net = build_proposed(DESK, seed=0)
    with pytest.raises(ContractError):
        perf.count_flops(net, (30, 32, 16))


def test_count_params_examples():
    # a single 3x3x3 conv 1 -> 64, without bias as a norm follows it
    net = build_unet_baseline(ScaledConfig(64, 1, (2, 2, 2)), seed=0)
    first_conv = NetworkGraph(net.name, net.cfg, net.seed, net.layers[:1])
    assert perf.count_params(first_conv) == 64 * 27 == 1728
    # the whole net: that conv, its norm's scale and shift, the 3x3x3 head conv 64 -> 1 with bias
    assert perf.count_params(net) == 1728 + 2 * 64 + 64 * 27 + 1 == 3585


def test_count_params_matches_graph_sum():
    net = build_proposed(DESK, seed=0)
    assert perf.count_params(net) == sum(t.size for _, _, t in net.parameters())
    assert perf.count_params(net) == perf.count_flops(net, (32, 32, 16)).total_params


def test_reference_configuration_complexity():
    prop = build_proposed(PAPER_PROPOSED_CONFIG, seed=0)
    unet = build_unet_baseline(PAPER_UNET_CONFIG, seed=0)
    gp = perf.count_flops(prop, (256, 256, 64)).total_gflops
    gu = perf.count_flops(unet, (256, 256, 64)).total_gflops
    assert 46.75 <= gp <= 63.25
    assert 787.0 <= gu <= 1065.0
    assert gu / gp >= 12.0
    pp = perf.count_params(prop)
    pu = perf.count_params(unet)
    assert 10.8e6 <= pp <= 13.2e6
    assert 44.1e6 <= pu <= 53.9e6
    assert 3.0 <= pu / pp <= 5.0


def test_reference_totals_exact():
    # FLOPs count the convs as defined; parameters hold a bias only in the head convs
    for build, cfg, flops, params in [
        (build_proposed, PAPER_PROPOSED_CONFIG, 57_352_912_896, 12_263_984),
        (build_unet_baseline, PAPER_UNET_CONFIG, 926_127_489_024, 49_336_129),
        (build_proposed, DESK, 13_615_104, 21_296),
    ]:
        report = perf.count_flops(build(cfg, seed=0), cfg.input_extents)
        assert (report.total_flops, report.total_params) == (flops, params)


def test_decoupling_ratio_exact():
    assert perf.decoupling_flops_ratio(3) == 4 / 9
    # straight from the counting rule at matched channel counts
    c = 64
    decoupled = 2 * c * 9 * c + 2 * c * 3 * c
    regular = 2 * c * 27 * c
    assert decoupled / regular == 4 / 9


def test_module_mac_ratio_from_counted_modules():
    assert perf.module_mac_ratio(3) == 7 / 9
    # the modules perf.bench_modules times, counted at 32x32x16 with 64 channels
    c, (h, w, d) = 64, (32, 32, 16)
    axial = perf.conv_flops(c, (3, 3, 1), c, (h // 2, w // 2, d))
    slice_ = perf.conv_flops(c, (1, 1, 3), c, (h // 2, w // 2, d // 2))
    regular = perf.conv_flops(c, (3, 3, 3), c, (h // 2, w // 2, d // 2))
    assert (axial + slice_) / regular == perf.module_mac_ratio(3)


def test_report_csv_and_table():
    net = build_proposed(DESK, seed=0)
    report = perf.count_flops(net, (32, 32, 16))
    lines = report.csv_lines()
    assert lines[0].startswith("layer_id,")
    assert lines[-1].startswith("total,")
    assert str(report.total_flops) in lines[-1]
    table = report.table()
    assert "GFLOPs" in table


def test_bench_modules_rows_and_ordering():
    rows = perf.bench_modules((16, 16, 8), channels=8, repeats=12, seed=0)
    assert len(rows) == 2
    names = {r.module for r in rows}
    assert names == {"regular3d", "decoupled"}
    for r in rows:
        assert r.repeats == 12
        assert r.median_ms > 0.0
        assert r.iqr_ms >= 0.0
    csv = rows[0].csv()
    assert csv.count(",") == 4


def test_bench_workers_column_is_blas_threads_in_effect():
    threads = perf.blas_threads()
    assert threads is None or threads >= 1
    for row in perf.bench_modules((16, 16, 8), channels=8, repeats=10, seed=0):
        assert row.workers == threads
        assert row.csv().split(",")[4] == ("" if threads is None else str(threads))


def test_bench_modules_repeat_floor():
    with pytest.raises(ContractError):
        perf.bench_modules((16, 16, 8), repeats=5)
