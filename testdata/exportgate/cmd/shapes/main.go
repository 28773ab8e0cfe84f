// Command shapes is the fixture's production caller.
package main

import (
	"fmt"

	"exportgate/internal/shape"
)

func main() {
	fmt.Println(shape.Box{W: 2, H: 3}.Perimeter(), shape.Disc{R: 1}.Area())
}
