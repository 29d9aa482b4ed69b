"""Loss analysis for superconducting CPW resonators and their films.

Modules:
    dataio      file formats, domain types, reports
    circlefit   notch S21 resonance fitting (one variable-projection solve)
    tlsloss     photon-number conversion and TLS saturation fits
    lossbudget  interface participation ratios and loss decomposition
    filmchar    XRD peaks, sheet resistance, Tc / RRR
    stats       box summaries and process grouping
    synth       synthetic data generators with ground truth
    cli         the `cpwloss` command line frontend
    errors      the exception types

The package root holds only __version__; import from the modules.
"""

__version__ = "0.1.0"
