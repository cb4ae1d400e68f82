package goroleak

// cycA and cycB recurse mutually and only cycA spins: a goroutine started
// on either end of the cycle reaches the endless loop, whichever end the
// analyzer happens to visit first.
func cycA() {
	cycB()
	for {
	}
}

func cycB() {
	cycA()
}

// StartA leaks through the spinning end of the cycle.
func StartA() {
	go cycA() // want "goroutine has no termination path"
}

// StartB leaks through the other end, which reaches the loop only round
// the cycle.
func StartB() {
	go cycB() // want "goroutine has no termination path"
}
