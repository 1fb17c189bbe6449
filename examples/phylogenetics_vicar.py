"""VICAR-style phylogenetics: HMM forward-algorithm likelihoods at
genome-scale magnitudes (the paper's Section V case study, scaled).

Demonstrates:
  * binary64 underflowing to a useless 0.0 likelihood,
  * log-space surviving but losing precision,
  * posit(64,18) surviving with ~2 orders of magnitude better accuracy,
  * the hardware view: what the FPGA forward units would cost and run.

Run:  python examples/phylogenetics_vicar.py
"""

from repro.apps.vicar import VicarConfig, run_vicar
from repro.arith import Binary64Backend, LogSpaceBackend, PositBackend
from repro.formats import PositEnv
from repro.hw import LOG, POSIT, ForwardUnit
from repro.report import CDF, cdf_table, orders_of_magnitude_gap, render_table


def main():
    # Scaled VICAR run: likelihoods near 2^-590,000 — the magnitude the
    # paper's T=100,000 HCG runs reach.
    config = VicarConfig(length=250, h_values=(6,), matrices_per_h=4,
                         bits_per_step=2_360.0, seed=7)
    backends = {
        "binary64": Binary64Backend(),
        "log": LogSpaceBackend(),
        "posit(64,18)": PositBackend(PositEnv(64, 18)),
    }
    print("Running the forward algorithm on 4 synthetic species-tree HMMs")
    print(f"(T={config.length} scaled sites, target likelihood scale "
          f"~2^{config.target_scale:.0f})...\n")
    result = run_vicar(config, backends)

    print(f"Reference likelihood exponents: {result.reference_scales}")
    print(f"binary64 underflows: {result.failure_count('binary64')} of "
          f"{len(result.reference_scales)} runs\n")

    cdfs = {fmt: CDF.from_samples(fmt, result.log10_errors(fmt))
            for fmt in ("log", "posit(64,18)")}
    print(render_table(cdf_table(cdfs),
                       title="Final-likelihood accuracy (Figure 10 style)"))
    gap = orders_of_magnitude_gap(cdfs["posit(64,18)"], cdfs["log"])
    print(f"\nposit(64,18) is {gap:.1f} orders of magnitude more accurate "
          f"at the median (paper: ~2 orders).")

    # Hardware view.
    print("\nFPGA forward-algorithm units for this model family "
          "(T=500,000 sites, 300 MHz):")
    rows = []
    for h in (13, 32, 64):
        log_u, posit_u = ForwardUnit(LOG, h), ForwardUnit(POSIT, h)
        rows.append({
            "H": h,
            "log time (s)": log_u.seconds(500_000),
            "posit time (s)": posit_u.seconds(500_000),
            "log LUTs": log_u.resources().lut,
            "posit LUTs": posit_u.resources().lut,
        })
    print(render_table(rows))


if __name__ == "__main__":
    main()
