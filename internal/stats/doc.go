// Package stats implements the statistical machinery used by the paper
// "Representation of Women in HPC Conferences" (SC '21): Welch's two-sample
// t-test, the chi-squared test for independence and goodness of fit,
// Pearson's product-moment correlation with a t-based p-value, descriptive
// statistics, Gaussian kernel density estimation and two-proportion
// tests.
//
// Everything is implemented from scratch on top of the Go standard library.
// The special functions (regularized incomplete gamma and beta) follow the
// classical Numerical-Recipes-style continued-fraction and series expansions
// and are accurate to roughly 1e-10 over the ranges exercised by the paper's
// analyses. Unit tests pin results against reference values computed with R.
//
// All functions are pure and safe for concurrent use.
package stats
