// Package lib holds the fixture's declarations: A is reached from main, B
// from A, C from nothing, D only from C, and String through fmt; E and F
// are reached from nothing, though main reaches other's E and W.F.
package lib

func A() { B() }

func B() {}

func C() { D() }

func D() {}

func E() {}

func F() {}

type T int

func (T) String() string { return "T" }
