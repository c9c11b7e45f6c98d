"""Automatic bandwidth selection and variable-type balancing.

The continuous bandwidth follows an n^(-1/(4+p_c)) rule; the categorical
bandwidths are then tuned so that the average pairwise kernel variance of
the categorical part matches that of the continuous part, weighted by a
user-chosen factor.
"""

import numpy as np

from dibmix import (
    GenSpec,
    choose_bandwidths,
    default_s,
    generate,
    kernel_factor_variance_categorical,
    kernel_factor_variance_continuous,
    standardize,
)


def main():
    labeled = generate(GenSpec(n=300, p_c=2, p_d=3, levels=(2, 4, 6),
                               overlap_cont=0.4, overlap_cat=0.4, seed=1))
    ds = standardize(labeled.data)

    print(f"dataset: n={ds.n}, {ds.p_cont} continuous, {ds.p_cat} categorical")
    print(f"rule-of-thumb s = {default_s(ds):.4f}\n")

    print(f"{'weight':>8} {'s':>8} {'lambda':>24} {'var cont':>10} {'var cat':>10}")
    for weight in (0.25, 1.0, 4.0):
        bw = choose_bandwidths(ds, categorical_weight=weight)
        var_c = kernel_factor_variance_continuous(ds, bw.s)
        var_d = kernel_factor_variance_categorical(ds, bw.lam)
        lam = np.array2string(bw.lam, precision=3, floatmode="fixed")
        print(f"{weight:>8.2f} {bw.s:>8.4f} {lam:>24} {var_c:>10.2e} {var_d:>10.2e}")

    print("\nHigher categorical weight lowers lambda (less smoothing), raising")
    print("the categorical kernel variance relative to the continuous part.")


if __name__ == "__main__":
    main()
