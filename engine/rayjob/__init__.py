"""Distributed layer: Ray Core tasks over the pdfcore extraction
kernel."""
