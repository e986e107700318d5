// Package lib holds the fixture's declarations: A is reached from main, B
// from A, C from nothing, D only from C, and String through fmt.
package lib

func A() { B() }

func B() {}

func C() { D() }

func D() {}

type T int

func (T) String() string { return "T" }
