// Package simtest stands for a test-support package: exempt from the gate.
package simtest

// Helper is referenced by no one, and not flagged.
func Helper() int { return 5 }
