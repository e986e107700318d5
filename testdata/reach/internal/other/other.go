// Package other shares names with lib: main reaches its function E and its
// method F, which must not keep lib's functions E and F alive.
package other

func E() {}

type W int

func (W) F() {}
