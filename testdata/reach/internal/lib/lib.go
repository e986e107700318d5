// Package lib holds the fixture's declarations: A is reached from main, B
// from A, C from nothing, D only from C, and T.String through fmt; E and
// F are reached from nothing, though main reaches other's E and W.F. Of
// the types, K and its H are reached through the interface call in Run;
// V is mentioned by nothing, so its G stays unreached although main calls
// other's W.G; and Y, which only a blank assertion mentions, keeps neither
// itself nor its H alive although I.H is called.
package lib

func A() { B() }

func B() {}

func C() { D() }

func D() {}

func E() {}

func F() {}

type T int

func (T) String() string { return "T" }

type I interface{ H() }

func Run(i I) { i.H() }

type K struct{}

func (K) H() {}

type V struct{}

func (V) G() {}

type Y struct{}

func (Y) H() {}

var _ I = Y{}
