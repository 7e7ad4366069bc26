package main

import "math/rand"

// drawOrder returns the arith workload's draw: a seeded permutation of the
// whole population [0, n). It sees only the population size, never anything
// about the sites, and every site is in every draw, so hard sites enter
// every run at their natural rate; the seed decides only the order.
func drawOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
