"""KIRA: static analysis over KIR programs.

The static sibling of the dynamic OEMU pipeline.  Where the fuzzer
*executes* instrumented code to discover reorderable access pairs, KIRA
derives the same class of facts from the program text alone:

* :mod:`repro.analysis.reaching` — flow-sensitive reaching definitions
  (backs the use-before-def check in :mod:`repro.kir.validate`);
* :mod:`repro.analysis.barriers` — the barrier lint and the
  :func:`~repro.analysis.barriers.static_reordering_candidates` hint
  source consumed by the fuzzer;
* :mod:`repro.analysis.locks` — lockdep-style lock-pairing checks
  (CFG-path-aware, trylock-sensitive);
* :mod:`repro.analysis.callgraph` / :mod:`repro.analysis.pointsto` /
  :mod:`repro.analysis.summaries` / :mod:`repro.analysis.lockset` /
  :mod:`repro.analysis.races` — the KIRA v2 interprocedural engine:
  call graph, field-sensitive points-to, per-function summaries,
  must-held locksets, and the ranked race-candidate report;
* :mod:`repro.analysis.lint` — orchestration + reporting
  (the ``repro lint`` CLI and KernelImage strict mode);
* :mod:`repro.analysis.sarif` — SARIF 2.1.0 rendering for code-scanning
  UIs.

Built on :mod:`repro.kir.cfg` and :mod:`repro.kir.dataflow`.  This
package may import from ``repro.kir`` and ``repro.oemu`` but never from
``repro.kernel`` or the fuzzer, so every layer above can use it freely.
Import each name from the submodule that defines it: the package itself
imports nothing, so loading :mod:`repro.analysis.reaching` (as every
kernel image build does) does not load the rest of KIRA.
"""
