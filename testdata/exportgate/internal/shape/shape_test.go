package shape

import "testing"

func TestBoxArea(t *testing.T) {
	if a := (Box{W: 2, H: 3}).Area(); a != 6 {
		t.Errorf("Area = %v, want 6", a)
	}
}
