"""Analytic reproduction of the paper's Table 1 overhead columns.

Each row of Table 1 bounds the communication and computation overhead of
a weighted protocol relative to its nominal counterpart with the same
number of parties.  The factors derive from two primitives:

* the *ticket factor* ``T/n`` -- the theorem bound divided by ``n``
  (virtual users, signature shares, coin shares all scale with it);
* the *rate factor* ``r_nominal / r_weighted`` -- for coded protocols,
  the loss from using a smaller code rate ``beta_n`` (Section 5.1).

Communication of coded protocols scales with the rate factor;
computation (Berlekamp-Massey decoding is ``O((m / r) * M)``) scales with
rate factor x ticket factor.  Share-based protocols scale with the ticket
factor in both columns.

Known deviation recorded in EXPERIMENTS.md: for the two black-box rows
the paper prints x2.67 where our Theorem 2.1 bound gives
``ceil(2.25 n)/n``; the paper's figure appears to use a looser
intermediate bound.  Our factor is *smaller*, so every qualitative claim
(constant overhead, who wins) is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ..core.bounds import wq_bound_value, wr_bound_value

__all__ = ["OverheadRow", "build_table1", "format_table1"]


@dataclass(frozen=True)
class OverheadRow:
    """One protocol row: derived worst-case overhead factors."""

    protocol: str
    mechanism: str  # "WR", "WQ", "WR (BB)"
    f_w: Fraction
    f_n: Fraction
    comm_overhead: Fraction
    comp_overhead: Fraction
    paper_comm: Optional[float] = None
    paper_comp: Optional[float] = None


def _ticket_factor_wr(alpha_w: Fraction, alpha_n: Fraction) -> Fraction:
    """``T/n`` upper bound for WR (Theorem 2.1, without the ceil)."""
    return wr_bound_value(alpha_w, alpha_n, 1)


def _ticket_factor_wq(beta_w: Fraction, beta_n: Fraction) -> Fraction:
    """``T/n`` upper bound for WQ (Corollary 2.3, without the ceil)."""
    return wq_bound_value(beta_w, beta_n, 1)


def build_table1() -> list[OverheadRow]:
    """Derive every Table 1 row from the theorem bounds."""
    f13, f14, f12 = Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)
    rows: list[OverheadRow] = []

    # --- RNG via WR(1/3, 1/2): shares scale with T/n = 4/3. ------------------
    rng_factor = _ticket_factor_wr(f13, f12)  # 4/3
    rows.append(
        OverheadRow(
            protocol="Distributed RNG / Common Coin",
            mechanism="WR",
            f_w=f13,
            f_n=f12,
            comm_overhead=rng_factor,
            comp_overhead=rng_factor,
            paper_comm=1.33,
            paper_comp=1.33,
        )
    )

    # --- Erasure-coded storage & broadcast via WQ(1/3, 1/4). -----------------
    # Nominal rate f_n = 1/3; weighted rate beta_n = 1/4.
    rate_factor = f13 / f14  # 4/3
    wq_factor = _ticket_factor_wq(f13, f14)  # 8/3
    rows.append(
        OverheadRow(
            protocol="Erasure-Coded Storage/Broadcast",
            mechanism="WQ",
            f_w=f13,
            f_n=f13,
            comm_overhead=rate_factor,
            comp_overhead=rate_factor * wq_factor,  # 32/9 ~ 3.56
            paper_comm=1.33,
            paper_comp=3.56,
        )
    )

    # --- High-threshold storage (Section 5.1, second instantiation). ---------
    f23 = Fraction(2, 3)
    rate2 = f23 / f12  # 4/3
    wq2 = _ticket_factor_wq(f23, f12)  # 4/3
    rows.append(
        OverheadRow(
            protocol="High-Threshold Erasure Storage",
            mechanism="WQ",
            f_w=f13,
            f_n=f13,
            comm_overhead=rate2,
            comp_overhead=rate2 * wq2,  # 16/9 ~ 1.78
            paper_comm=1.33,
            paper_comp=1.78,
        )
    )

    # --- Error-corrected broadcast via WQ(2/3, 5/8), code rate 1/4. ----------
    f58 = Fraction(5, 8)
    rate_ec = f13 / f14  # nominal rate 1/3 vs weighted 1/4
    wq_ec = _ticket_factor_wq(f23, f58)  # 16/3
    rows.append(
        OverheadRow(
            protocol="Error-Corrected Broadcast",
            mechanism="WQ",
            f_w=f13,
            f_n=f13,
            comm_overhead=rate_ec,
            comp_overhead=rate_ec * wq_ec,  # 64/9 ~ 7.11
            paper_comm=1.33,
            paper_comp=7.11,
        )
    )

    # --- Verifiable secret sharing via WR(1/3, 1/2). -------------------------
    rows.append(
        OverheadRow(
            protocol="Verifiable Secret Sharing",
            mechanism="WR",
            f_w=f13,
            f_n=f13,
            comm_overhead=rng_factor,
            comp_overhead=rng_factor,
            paper_comm=1.33,
            paper_comp=1.33,
        )
    )

    # --- Blunt threshold primitives via WR(1/3, 1/2). ------------------------
    rows.append(
        OverheadRow(
            protocol="Blunt Threshold Sig/Enc/FHE",
            mechanism="WR",
            f_w=f13,
            f_n=f12,
            comm_overhead=rng_factor,
            comp_overhead=rng_factor,
            paper_comm=1.33,
            paper_comp=1.33,
        )
    )

    # --- Tight threshold primitives via WR(1/2- , 1/2) + vote round. ---------
    rows.append(
        OverheadRow(
            protocol="Tight Threshold Sig/Enc/FHE (+O(n^2) small msgs)",
            mechanism="WR",
            f_w=f12,
            f_n=f12,
            comm_overhead=rng_factor,
            comp_overhead=rng_factor,
            paper_comm=1.33,
            paper_comp=1.33,
        )
    )

    # --- Black-box transformation WR(1/4, 1/3): virtual-user count. ----------
    bb_factor = _ticket_factor_wr(f14, f13)  # 9/4 (paper prints 8/3)
    rows.append(
        OverheadRow(
            protocol="Black-Box Consensus / SSLE (Linear BFT)",
            mechanism="WR (BB)",
            f_w=f14,
            f_n=f13,
            comm_overhead=bb_factor,
            comp_overhead=bb_factor,
            paper_comm=2.67,
            paper_comp=2.67,
        )
    )

    # --- Black-box erasure-coded storage: ticket factor x rate factor. -------
    rows.append(
        OverheadRow(
            protocol="Black-Box Erasure-Coded Storage",
            mechanism="WR (BB)",
            f_w=f14,
            f_n=f13,
            comm_overhead=Fraction(0),  # paper prints "-" (not the bottleneck)
            comp_overhead=bb_factor * rate_factor,  # 3 with the paper's 9/4*4/3
            paper_comm=None,
            paper_comp=3.0,
        )
    )

    return rows


def format_table1(rows: Sequence[OverheadRow]) -> str:
    """Render the derived table next to the paper's printed factors."""
    header = (
        f"{'protocol':<50} {'mech':<8} {'fw':>5} {'fn':>5} "
        f"{'comm':>7} {'paper':>7} {'comp':>7} {'paper':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        comm = f"x{float(row.comm_overhead):.2f}" if row.comm_overhead else "-"
        pcomm = f"x{row.paper_comm:.2f}" if row.paper_comm else "-"
        comp = f"x{float(row.comp_overhead):.2f}"
        pcomp = f"x{row.paper_comp:.2f}" if row.paper_comp else "-"
        lines.append(
            f"{row.protocol:<50} {row.mechanism:<8} "
            f"{str(row.f_w):>5} {str(row.f_n):>5} "
            f"{comm:>7} {pcomm:>7} {comp:>7} {pcomp:>7}"
        )
    return "\n".join(lines)
