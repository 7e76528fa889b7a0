"""
Files, the command line, and the verify pass
============================================

Spaces, maps, and tensor elements serialize to versioned JSON with exact
"p/q" rationals. Every CLI report embeds its inputs, so a report file can
be confirmed later without the original inputs.
"""

import json
import tempfile
from pathlib import Path

from aoulab import dumps, lin_space, linf
from aoulab.cli import main

work = Path(tempfile.mkdtemp(prefix="aoulab-demo-"))
(work / "linf2.json").write_text(dumps(linf(2)))
(work / "lin2.json").write_text(dumps(lin_space(2)))

print("canonical file for linf(2):")
print((work / "linf2.json").read_text())

# the norm verb prints bare values in text mode
print("norm linf2 [1,-1]:")
main(["norm", str(work / "linf2.json"), "--vector", "[1,-1]"])

# JSON reports carry the whole computation
import io

buf = io.StringIO()
main(
    ["nuclear-pair", str(work / "lin2.json"), str(work / "lin2.json"), "--format", "json"],
    out=buf,
)
report = work / "pair.json"
report.write_text(buf.getvalue())
d = json.loads(buf.getvalue())
print("nuclear:", d["nuclear"], " witness rows:", d["witness"]["coeffs"])

# and verify checks the report's certificates against its embedded inputs
code = main(["verify", str(report)])
print("verify exit code:", code)

# the built-in examples are the one-command reproduction target
code = main(["examples", "paper"])
print("examples exit code:", code)
