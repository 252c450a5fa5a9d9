// Command app uses the fixture's packages.
package main

import (
	"fmt"

	"fixture/internal/shape"
	"fixture/internal/stream"
	"fixture/internal/tensor"
)

func main() {
	var s shape.Shape = shape.Square{Side: 2}
	r := (&stream.Stream{}).Next()
	r.Ack = true
	fmt.Println(s.Area(), r.Ack, (&tensor.Mat[float64]{}).Rows())
}
