"""A small power study against FvML alternatives, with predictions.

Runs the Monte Carlo harness on a reduced version of the shipped FvML
config and sets the empirical rejection rates against the asymptotic
predictions: the chance that a Brownian bridge leaves the band of half
width c_alpha around the alternative's drift, computed deterministically.
"""

from sphuni import ExperimentConfig, ShiftFunction, predict_asymptotic_power, run_power_curve

N = P = 80
REPS = 400  # the shipped configs use 2000; this is a quick look


def main():
    cfg = ExperimentConfig(
        n=N,
        p=P,
        alpha=0.05,
        reps=REPS,
        model_family="fvml",
        signal_grid=(0.5, 1.0, 1.5, 2.0),
        methods=("sup_distance", "rayleigh", "bingham"),
        seed=99,
    )
    curve = run_power_curve(cfg)

    print(f"FvML power at n = p = {N}, {REPS} replications per point")
    print("  tau   sup(emp)  sup(pred)  rayleigh  bingham")
    for tau in cfg.signal_grid:
        pred = predict_asymptotic_power(ShiftFunction("fvml", tau), 0.05)
        print(
            f"  {tau:3.1f}   {curve.rate(tau, 'sup_distance'):7.3f}  {pred:8.3f}"
            f"  {curve.rate(tau, 'rayleigh'):8.3f}  {curve.rate(tau, 'bingham'):7.3f}"
        )
    print("\nRayleigh is the optimal test in this family; the sup-distance test")
    print("tracks its own asymptotic prediction, while Bingham stays blind.")


if __name__ == "__main__":
    main()
