"""The public surface of `bratteli`: the names the package exports, one a
line, so that adding or dropping one shows as a one-line diff here."""

from __future__ import annotations

from types import ModuleType

import bratteli

PUBLIC_NAMES = [
    "AlgebraicNumber",
    "BratteliDiagram",
    "BratteliError",
    "CollaredLetter",
    "CollaredSubstitution",
    "DecodedPatch",
    "DiagramTemplate",
    "EmptyRule",
    "EventuallyPeriodicPath",
    "FIBONACCI_SPEC",
    "FieldMismatch",
    "GapProfile",
    "HorizontalTemplate",
    "IllegalCollarProduced",
    "IncompatibleHorizontal",
    "Letter",
    "ModulusField",
    "NoRootAboveOne",
    "NotPrimitive",
    "Pairing",
    "ParseError",
    "PatchTooLarge",
    "PathPrefix",
    "PeriodicDetected",
    "RbWitness",
    "SingularSystem",
    "Substitution",
    "THUE_MORSE_SPEC",
    "UnknownLetter",
    "UnpairedExtreme",
    "VerticalTemplate",
    "af_equiv",
    "aperiodicity_screen",
    "build_diagram",
    "classify_GF",
    "collar_alphabet",
    "decode",
    "decode_collared",
    "diagram_chains",
    "enumerate_paths",
    "escape_depth",
    "export_dot",
    "export_json",
    "extremal_paths",
    "gap_profile",
    "hypothesis_check",
    "legal_words",
    "load_fixture",
    "pair_extremes",
    "parse_path",
    "parse_spec",
    "patch_size",
    "perron_lengths",
    "primitivity_index",
    "rb_base_member",
    "rb_base_translation",
    "rb_equiv",
    "rb_via_generators",
    "render_path",
    "u_of_prefix",
    "vershik_successor",
]


def test_public_names():
    # submodules are attributes too once imported; they are not API names
    exported = [n for n in dir(bratteli) if not n.startswith("_") and not isinstance(getattr(bratteli, n), ModuleType)]
    assert sorted(exported) == PUBLIC_NAMES
