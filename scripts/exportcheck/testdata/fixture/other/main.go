// Command other is a second module that reaches the first through replace.
package main

import (
	"fmt"

	"fixture/internal/tensor"
)

func main() { fmt.Println(tensor.New[int]().Rows()) }
