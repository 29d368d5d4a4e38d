import pytest

import check
import workloads


def _write(tmp_path, files):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)


def _replace_once(data: bytes, old: str, new: str) -> bytes:
    text = data.decode()
    assert old in text
    return text.replace(old, new, 1).encode()


@pytest.fixture(scope="module")
def sweep_golden():
    return check.load_golden("sweep-r5")


@pytest.fixture(scope="module")
def spectra_golden():
    return check.load_golden("spectra-k12")


def test_golden_outputs_pass_and_are_identical(tmp_path, sweep_golden):
    _write(tmp_path, sweep_golden)
    assert check.compare_tree(tmp_path, sweep_golden) == ([], 2, 2)


def _csv_number(golden):
    """A P_pulse cell of the robustness CSV."""
    row = golden["robustness.csv"].decode().splitlines()[4]
    return row.split(",")[4]


def test_mutated_csv_number_is_flagged(tmp_path, sweep_golden):
    cell = _csv_number(sweep_golden)
    files = dict(sweep_golden)
    files["robustness.csv"] = _replace_once(files["robustness.csv"], cell,
                                            f"{float(cell) + 1e-6:.12g}")
    _write(tmp_path, files)
    problems, identical, total = check.compare_tree(tmp_path, sweep_golden)
    assert problems and "P_pulse" in problems[0] and identical == 1


def test_csv_number_within_tolerance_passes_but_is_not_identical(tmp_path, sweep_golden):
    cell = _csv_number(sweep_golden)
    files = dict(sweep_golden)
    files["robustness.csv"] = _replace_once(files["robustness.csv"], cell,
                                            f"{float(cell) + 1e-11:.12g}")
    _write(tmp_path, files)
    assert check.compare_tree(tmp_path, sweep_golden) == ([], 1, 2)


def test_mutated_csv_text_field_is_flagged(tmp_path, sweep_golden):
    files = dict(sweep_golden)
    files["robustness.csv"] = _replace_once(files["robustness.csv"], "\n01,", "\n1,")
    _write(tmp_path, files)
    problems, _, _ = check.compare_tree(tmp_path, sweep_golden)
    assert problems and "oracle" in problems[0]


def test_mutated_trace_and_svg_are_flagged(tmp_path, spectra_golden):
    files = dict(spectra_golden)
    trace = "spectrum_k1_01_r2.txt"
    line = files[trace].decode().splitlines()[1000]
    freq, value = line.split()
    files[trace] = _replace_once(files[trace], line, f"{freq} {float(value) + 1e-6:.12g}")
    svg = "spectra_k2.svg"
    files[svg] = _replace_once(files[svg], 'stroke="#bbb"', 'stroke="#bbc"')
    _write(tmp_path, files)
    problems, identical, total = check.compare_tree(tmp_path, spectra_golden)
    assert sorted(p.split(":")[0] for p in problems) == [svg, trace]
    assert (identical, total) == (total - 2, 52)


def test_svg_coordinates_compare_at_printed_precision():
    golden = '<polyline points="207.955,84 12.5,3.25e-05"/>'
    near = '<polyline points="207.956,84 12.5,3.25001e-05"/>'
    far = '<polyline points="207.957,84 12.5,3.25e-05"/>'
    assert check.compare_file("a.svg", near.encode(), golden.encode()) is None
    assert check.compare_file("a.svg", far.encode(), golden.encode())


def test_missing_and_extra_files_are_flagged(tmp_path, sweep_golden):
    _write(tmp_path, {"robustness.csv": sweep_golden["robustness.csv"], "stray.txt": b"x"})
    problems, _, _ = check.compare_tree(tmp_path, sweep_golden)
    assert "file set differs" in problems[0]
    assert "robustness.svg" in problems[0] and "stray.txt" in problems[0]


@pytest.mark.parametrize("name", ["spectra-k12", "sweep-r5"])
def test_reference_path_reproduces_golden_for_default_seed(name):
    workload = workloads.build(name, workloads.DEFAULT_SEED)
    reference = {}
    for command in workload.commands:
        reference.update(check.reference_outputs(command))
    assert reference == check.load_golden(name)


def _verify_report(failing=(4,), residual="7.805e-01"):
    lines = []
    for i in range(1, 10):
        detail = f"max pulse-level cube residual {residual} at eps=0.1" if i == 4 else "ok"
        lines.append(f"[{'FAIL' if i in failing else 'PASS'}] check {i} (0.01s): {detail}")
    return "\n".join(lines) + "\n1 of 9 checks failed\n"


def test_verify_report_passes_only_with_criterion_4_failing():
    assert check.check_verify_output(_verify_report()) == ([], 0.7805)
    assert check.check_verify_output(_verify_report(failing=()))[0]
    assert check.check_verify_output(_verify_report(failing=(4, 9)))[0]
    assert check.check_verify_output("[PASS] only one (0.00s): x\n")[0]
