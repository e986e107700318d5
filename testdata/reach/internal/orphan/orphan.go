// Package orphan is imported by nothing.
package orphan

func Lost() {}
