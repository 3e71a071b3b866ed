"""Collared Bratteli diagrams and exact path calculus for one-dimensional
primitive substitution tilings."""

from .errors import (
    BratteliError,
    EmptyRule,
    FieldMismatch,
    IllegalCollarProduced,
    IncompatibleHorizontal,
    NoRootAboveOne,
    NotPrimitive,
    ParseError,
    PatchTooLarge,
    PeriodicDetected,
    SingularSystem,
    UnknownLetter,
    UnpairedExtreme,
)
from .exactnum import AlgebraicNumber, ModulusField
from .substitution import (
    CollaredLetter,
    CollaredSubstitution,
    Letter,
    Substitution,
    aperiodicity_screen,
    collar_alphabet,
    legal_words,
    parse_spec,
    perron_lengths,
    primitivity_index,
)
from .diagram import (
    BratteliDiagram,
    DiagramTemplate,
    HorizontalTemplate,
    VerticalTemplate,
    build_diagram,
    diagram_chains,
    export_dot,
    export_json,
    hypothesis_check,
)
from .fixtures import FIBONACCI_SPEC, THUE_MORSE_SPEC, load_fixture
from .paths import (
    DecodedPatch,
    EventuallyPeriodicPath,
    Pairing,
    PathPrefix,
    RbWitness,
    af_equiv,
    decode,
    decode_collared,
    enumerate_paths,
    extremal_paths,
    pair_extremes,
    parse_path,
    patch_size,
    rb_base_member,
    rb_base_translation,
    rb_equiv,
    rb_via_generators,
    render_path,
    u_of_prefix,
    vershik_successor,
)
from .analysis import (
    GapProfile,
    classify_GF,
    escape_depth,
    gap_profile,
)

__version__ = "0.1.0"
