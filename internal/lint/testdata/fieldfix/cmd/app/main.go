package main

import "snic/internal/shapes"

func main() { shapes.Run(3) }
