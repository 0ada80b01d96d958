"""System configuration with the paper's defaults (Section 8)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class KamelConfig:
    """The settings a caller varies, defaulted to the paper's choices.

    The paper tunes hexagon edge 75 m, beam size 10 and ``maxgap`` 100 m
    (Sections 3–8). Pyramid height/levels and the model threshold ``k``
    are scaled down relative to the paper's city-scale deployments; the
    defaults here suit the ~3 km synthetic cities of :mod:`repro.roadnet`.

    Values nothing varies are named constants beside the code that uses
    them: the BERT size (:class:`repro.mlm.bert.BertConfig`, trained with
    :class:`~repro.mlm.bert.TrainingConfig`'s seed), the candidates asked
    per model call and the length-normalization strength alpha = 1
    (:mod:`repro.core.imputation`), the 45-degree direction cones, the
    cycle window x = 6, the ellipse slack and floor and the per-insertion
    detour slack (:mod:`repro.core.constraints`), the DBSCAN
    ``min_samples`` and feature scales (:mod:`repro.core.detokenization`)
    and the reduced rungs' budgets (:mod:`repro.resilience.ladder`). The
    counting rung's global model is always built. The speed ellipse's
    bound is not a setting: it is always inferred from the training
    data, as in the paper (:func:`repro.core.kamel.infer_max_speed`).
    """

    # -- Tokenization (Section 3) --
    grid_type: str = "hex"
    """``"hex"`` (Uber-H3-style, paper default) or ``"square"`` (S2-style)."""
    cell_edge_m: float = 75.0
    auto_tune_cell_size: bool = False
    """When True, :meth:`repro.core.kamel.Kamel.fit` sweeps candidate cell
    sizes on a sample of the training data (Section 3.2)."""
    cell_size_candidates: tuple[float, ...] = (25.0, 50.0, 75.0, 100.0, 150.0)

    # -- Model backend (the "BERT" black box) --
    model_backend: str = "counting"
    """``"bert"`` (transformer MLM, faithful but slow) or ``"counting"``
    (drop-in fast backend; see DESIGN.md substitution table)."""
    bert_epochs: int = 20
    """Training epochs of the ``"bert"`` backend (its size is
    :class:`repro.mlm.bert.BertConfig`'s default)."""

    # -- Partitioning (Section 4) --
    use_partitioning: bool = True
    """Ablation switch: False trains one model for all data (Fig. 12-VI)."""
    pyramid_height: int = 5
    """H: leaf level is ``H - 1`` (the paper uses 10 at city scale)."""
    pyramid_levels: int = 3
    """L: number of lowest pyramid levels that maintain models."""
    pyramid_root_extent_m: float = 96_000.0
    """Side length of the pyramid root cell ("the whole space"). The paper
    roots its pyramid at the whole world with city-scale leaves; 96 km with
    H=5 gives 6 km leaves — comfortably enclosing the ~3 km synthetic
    cities the way Porto sat inside one leaf in the paper's deployment."""
    model_threshold_k: int = 500
    """k: minimum token count to build a leaf model (paper default 20 000;
    scaled for synthetic cities). A model at level ``l`` needs
    ``k * 4**(leaf_level - l)`` tokens; neighbor-cell models need double."""

    # -- Spatial constraints (Section 5) --
    use_constraints: bool = True
    """Ablation switch: False accepts every model prediction (Fig. 12-VI)."""

    # -- Multipoint imputation (Section 6) --
    use_multipoint: bool = True
    """Ablation switch: False performs a single model call per gap."""
    imputer: str = "beam"
    """``"beam"`` (Algorithm 2, paper default) or ``"iterative"`` (Alg. 1)."""
    maxgap_m: float = 100.0
    beam_size: int = 10
    max_model_calls: int = 1500
    """Hard limit per gap; exceeding it is a failure -> linear fallback.
    Beam search expands every open gap of every surviving beam entry per
    round, so long gaps (15+ tokens) legitimately need hundreds of calls."""

    def __post_init__(self) -> None:
        if self.grid_type not in ("hex", "square"):
            raise ConfigError(f"grid_type must be 'hex' or 'square', got {self.grid_type!r}")
        if self.model_backend not in ("counting", "bert"):
            raise ConfigError(
                f"model_backend must be 'counting' or 'bert', got {self.model_backend!r}"
            )
        if self.imputer not in ("beam", "iterative"):
            raise ConfigError(f"imputer must be 'beam' or 'iterative', got {self.imputer!r}")
        if self.cell_edge_m <= 0:
            raise ConfigError("cell_edge_m must be positive")
        if self.maxgap_m <= 0:
            raise ConfigError("maxgap_m must be positive")
        if self.beam_size < 1:
            raise ConfigError("beam_size must be >= 1")
        if self.pyramid_levels < 1 or self.pyramid_levels > self.pyramid_height:
            raise ConfigError("pyramid_levels must be in [1, pyramid_height]")
        if self.pyramid_root_extent_m <= 0:
            raise ConfigError("pyramid_root_extent_m must be positive")
        if self.model_threshold_k < 1:
            raise ConfigError("model_threshold_k must be >= 1")
        if self.max_model_calls < 1:
            raise ConfigError("max_model_calls must be >= 1")

    @property
    def leaf_level(self) -> int:
        return self.pyramid_height - 1

    def model_threshold(self, level: int) -> int:
        """Token count required for a single-cell model at ``level``."""
        if not 0 <= level <= self.leaf_level:
            raise ConfigError(f"level {level} outside pyramid of height {self.pyramid_height}")
        return self.model_threshold_k * 4 ** (self.leaf_level - level)

