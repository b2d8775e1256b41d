"""Membership-inference attacks and their evaluation.

Used to *validate* the protocol's guarantees — the released SNP sets
must keep these detectors near their false-positive budget — and by the
examples to demonstrate what goes wrong without GenDPR.
"""
