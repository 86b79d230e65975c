"""tools/output_digests.py digests what a run writes, not where it writes it."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
_spec = importlib.util.spec_from_file_location("output_digests", TOOL)
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)


def test_digest_ignores_the_directory_and_sees_one_byte(tmp_path):
    digests = []
    for name in ("a", "bb"):
        run_dir = tmp_path / name
        codes, stdout = output_digests.run_lines(
            output_digests.workload_lines("enum_gray", 1, run_dir))
        assert codes == [0, 0] and str(run_dir) in stdout
        digests.append(output_digests.digest(run_dir, codes, stdout))
    assert digests[0] == digests[1]
    table = run_dir / "out" / "set0" / "enumeration.csv"
    raw = bytearray(table.read_bytes())
    raw[-2] ^= 1
    table.write_bytes(bytes(raw))
    assert output_digests.digest(run_dir, codes, stdout) != digests[0]
