package framelog

import "io"

// WriteFrame emits one frame carrying payload as given, for tests that
// frame bytes the codec would not write. A payload over MaxPayload is
// refused before it is copied.
func WriteFrame(w io.Writer, magic string, payload []byte) error {
	head := make([]byte, len(magic)+lenCRCLen)
	copy(head, magic)
	if err := sealFrame(head[len(magic):], payload); err != nil {
		return err
	}
	_, err := w.Write(append(head, payload...))
	return err
}

// marshal is v's payload: its frame without the magic, length and CRC.
func marshal[T any](v T) ([]byte, error) {
	frame, err := appendFrame(nil, "", &v)
	if err != nil {
		return nil, err
	}
	return frame[lenCRCLen:], nil
}
