"""Signature-monitoring control-flow checking techniques.

Two from this paper:

* :class:`~repro.checking.edgcf.EdgCF` — edge control-flow checking,
* :class:`~repro.checking.rcf.RCF` — region-based control-flow checking,

and three baselines it compares against:

* :class:`~repro.checking.ecf.ECF` — run-time adjusting signatures
  (Reis et al., SWIFT),
* :class:`~repro.checking.cfcss.CFCSS` — static xor signatures (Oh et
  al.),
* :class:`~repro.checking.ecca.ECCA` — prime-product assertions
  (Alkhalifa et al.).

Plus the Jcc/CMOVcc update styles (Figure 14) and the checking
policies (Figure 15).
"""

from repro.checking.base import (ERROR_LABEL, BlockInfo, CheckedDiv,
                                 CondDesc, ErrorBranch, Item, LabelMark,
                                 LoadSig, LocalBranch, RawIns, SigExpr,
                                 Technique, UpdateStyle, const_expr,
                                 sig_of)
from repro.checking.cfcss import CFCSS
from repro.checking.dataflow import (SHADOW_BASE, DataFlowDuplication)
from repro.checking.ecca import ECCA
from repro.checking.ecf import ECF
from repro.checking.edgcf import EdgCF, NaiveEdgeCF
from repro.checking.policies import ALL_POLICIES, Policy
from repro.checking.rcf import RCF
from repro.checking.signatures import CfcssSignatures, EccaSignatures

__all__ = [
    "ERROR_LABEL", "BlockInfo", "CheckedDiv", "CondDesc", "ErrorBranch",
    "Item", "LabelMark", "LoadSig", "LocalBranch", "RawIns", "SigExpr",
    "Technique", "UpdateStyle", "const_expr", "sig_of",
    "CFCSS", "ECCA", "ECF", "EdgCF", "NaiveEdgeCF", "RCF",
    "SHADOW_BASE", "DataFlowDuplication",
    "ALL_POLICIES", "Policy",
    "CfcssSignatures", "EccaSignatures", "TECHNIQUES",
]

#: The names :func:`make_technique` builds.
TECHNIQUES = ("ecf", "edgcf", "rcf", "cfcss", "ecca", "edgcf-naive")


def make_technique(name: str, update_style: UpdateStyle = UpdateStyle.JCC,
                   cfg=None) -> Technique:
    """Factory: build a technique by name.

    ``cfg`` is required for the whole-CFG techniques (cfcss, ecca).
    """
    key = name.lower()
    if key == "edgcf":
        return EdgCF(update_style=update_style)
    if key == "edgcf-naive":
        return NaiveEdgeCF(update_style=update_style)
    if key == "rcf":
        return RCF(update_style=update_style)
    if key == "ecf":
        return ECF(update_style=update_style)
    if key == "cfcss":
        if cfg is None:
            raise ValueError("CFCSS needs the whole CFG")
        return CFCSS(CfcssSignatures.assign(cfg), update_style=update_style)
    if key == "ecca":
        if cfg is None:
            raise ValueError("ECCA needs the whole CFG")
        return ECCA(EccaSignatures.assign(cfg), update_style=update_style)
    raise ValueError(f"unknown technique {name!r}")
