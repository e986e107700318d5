// Package other shares names with lib: main reaches its function E and its
// methods F and G, which must not keep lib's functions E and F or its
// method V.G alive.
package other

func E() {}

type W int

func (W) F() {}

func (W) G() {}
