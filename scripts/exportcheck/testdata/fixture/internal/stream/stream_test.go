package stream

import "testing"

func TestAck(t *testing.T) {
	s := &Stream{}
	s.Ack()
	if !s.Next().Ack {
		t.Fatal("not acknowledged")
	}
}
