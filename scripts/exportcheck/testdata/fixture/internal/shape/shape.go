// Package shape holds a method that is reached only through an interface.
package shape

// Shape has an area.
type Shape interface{ Area() float64 }

// Square is a Shape.
type Square struct{ Side float64 }

// Area is called only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }
