"""SVG rendering of networks, trajectories, and imputations.

Pure-stdlib SVG string building (no plotting dependency), good enough to
eyeball what the system did: roads in grey, the ground truth in green,
the sparse input as dots, and the imputed path in blue with failed
(straight-line) segments dashed red.
"""

from repro.viz.svg import SvgCanvas, render_imputation, render_network

__all__ = [
    "SvgCanvas",
    "render_imputation",
    "render_network",
]
