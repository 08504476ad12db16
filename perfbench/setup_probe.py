"""One cold set-up of jordanred, timed from a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR SETUP_ALGEBRAS [EXTRA_ALGEBRAS]

Times ``import jordanred`` and then the cold build of each cached table, in
dependency order, for every algebra of SETUP_ALGEBRAS (for example ``RCHO``)
and then of EXTRA_ALGEBRAS.  ``setup_s`` covers the import and the first
group only; the extra builds are timed for the per-layer rows.  Prints one
JSON object.
"""

import json
import sys
import time

# Dependency order: each table is built cold, after the ones it reads.
BUILDERS = (("liealg", "so3a_basis"), ("liealg", "bform_inverse"),
            ("liealg", "nilpotent_generators"), ("liealg", "operator_span"),
            ("reductions", "pi_functional_matrix"), ("reductions", "ker_pi_basis"))


def main(argv) -> int:
    src, setup_algebras = argv[1], argv[2]
    extra_algebras = argv[3] if len(argv) > 3 else ""
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import jordanred
    from jordanred import liealg, reductions
    from jordanred.algebra import tag_by_name
    import_s = time.perf_counter() - t0
    modules = {"liealg": liealg, "reductions": reductions}
    builds = []
    setup_s = import_s
    for group, algebras in (("setup", setup_algebras), ("extra", extra_algebras)):
        for name in algebras:
            tag = tag_by_name(name)
            for module, fn in BUILDERS:
                start = time.perf_counter()
                getattr(modules[module], fn)(tag)
                seconds = time.perf_counter() - start
                builds.append({"row": "%s.%s.cold_ms.%s" % (module, fn, name),
                               "ms": seconds * 1e3})
                if group == "setup":
                    setup_s += seconds
    print(json.dumps({"import_s": import_s, "setup_s": setup_s, "builds": builds,
                      "package": jordanred.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
