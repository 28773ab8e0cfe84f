// Package shape is a fixture for the export gate: Box.Area and
// Disc.Area share a name, and only Disc.Area has a production caller.
package shape

type Box struct{ W, H float64 }

func (b Box) Area() float64 { return b.W * b.H }

func (b Box) Perimeter() float64 { return 2 * (b.W + b.H) }

type Disc struct{ R float64 }

func (d Disc) Area() float64 { return 3.14159 * d.R * d.R }
