"""Ray-Data-native PDF text-extraction engine.

A from-scratch re-derivation of the extraction semantics of the reference
library cmlburnett/pypdfproc (see /root/reference and SURVEY.md), built as
Ray Data pipelines over Arrow batches:

* ``engine.pdfcore`` — pure-Python PDF semantics (no Ray imports): COS
  lexing/parsing, xref resolution, stream filters, content-stream
  interpretation, font/CMap decoding, positioned-text assembly.
* ``engine.rayjob`` — the distributed layer: ``ray.data.Dataset`` pipelines
  with task-based ``map_batches`` stages, ordering shuffle, checkpoint
  manifest, and metrics.
"""
