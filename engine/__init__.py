"""Ray-native PDF text-extraction engine.

A from-scratch re-derivation of the extraction semantics of the reference
library cmlburnett/pypdfproc (see /root/reference and SURVEY.md), built as
Ray Core tasks over Arrow batches:

* ``engine.pdfcore`` — pure-Python PDF semantics (no Ray imports): COS
  lexing/parsing, xref resolution, stream filters, content-stream
  interpretation, font/CMap decoding, positioned-text assembly.
* ``engine.rayjob`` — the distributed layer: the resumable sink
  (``run_extraction``) as plain Ray Core tasks driven with ``ray.wait``
  (Ray Data's executor only added fixed cost to a map), external-spill
  ordering shuffle, checkpoint manifest and metrics; the driver contract's
  ``ray.data.Dataset`` queries, materialized from the same Stage A tasks.
"""
