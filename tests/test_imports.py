import subprocess
import sys


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; the runtime must not pull it in
    code = ("import sys, tilq; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
