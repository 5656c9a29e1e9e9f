"""Distributed layer: Ray tasks and Ray Data pipelines over the pdfcore
extraction kernel."""
