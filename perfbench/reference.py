"""The host-speed reference: fixed stdlib-only work in the image of a
``repro`` op's user-mode part (parsing Python source, walking the tree,
JSON, hashing).  Nothing of the repository runs in it, so no change to
the program under test can change its time.

    python3 -I perfbench/reference.py

prints the CPU seconds the work took (timed inside the process, so
interpreter start is left out) and a digest of its results.  Each sample
is a fresh process, so a median over samples is not biased by one
process's hash seed and memory layout.
"""

import ast
import hashlib
import json
import time

#: Python source the work parses: 20 classes of six methods.
SOURCE = "".join(
    f"class C{i}:\n"
    + "".join(
        f"    def op{j}(self, x):\n        return ['op{(j + 1) % 6}', x + {j}]\n"
        for j in range(6)
    )
    for i in range(20)
)


def work() -> str:
    digest = hashlib.sha256()
    for _ in range(20):
        for node in ast.walk(ast.parse(SOURCE)):
            if isinstance(node, ast.ClassDef):
                methods = {f.name: ast.dump(f)[:64] for f in node.body}
                text = json.dumps({"class": node.name, "methods": methods}, sort_keys=True)
                digest.update(json.loads(text)["class"].encode() + text.encode())
    return digest.hexdigest()


if __name__ == "__main__":
    started = time.process_time()
    digest = work()
    print(f"{time.process_time() - started:.6f} {digest}")
