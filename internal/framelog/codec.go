package framelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
)

// The payload codec every frame carries. A value is written as its
// exported struct fields in declaration order, recursively:
//
//	bool                  one byte, 0 or 1
//	int, int8 … int64     zig-zag varint
//	uint, uint8 … uint64  uvarint
//	float64               IEEE 754 bits, u64 little-endian
//	string, slice         uvarint length, then the bytes or elements
//	array                 its elements
//
// No type information is written, so the bytes are a function of the
// value alone, not of what else the process encoded first. A map,
// pointer, interface, func, channel, complex or float32 anywhere in a
// type, an unexported struct field, a slice of zero-size elements or a
// recursive type is an error at encode and at decode, so no field can
// silently vanish from a file and every element costs at least a byte.
// The decoder refuses a declared length beyond the bytes left before it
// allocates, so what it allocates is bounded by a small multiple of the
// payload; it also refuses trailing bytes, a non-minimal varint and a
// bool byte other than 0 or 1: every payload it accepts re-encodes to
// exactly itself.

// errPayload is wrapped by every decode failure the bytes cause.
var errPayload = errors.New("framelog: malformed payload")

// walkType reports why the codec cannot carry t, or nil. depth counts
// the types t is nested in; only a recursive type nests 32 deep.
func walkType(t reflect.Type, depth int) error {
	switch t.Kind() {
	case reflect.Bool, reflect.String, reflect.Float64, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32,
		reflect.Int64, reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return nil
	case reflect.Slice:
		if t.Elem().Size() == 0 || depth > 32 {
			return fmt.Errorf("framelog: the codec cannot carry %v: zero-size elements, or a recursive type", t)
		}
		fallthrough
	case reflect.Array:
		return walkType(t.Elem(), depth+1)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); !f.IsExported() {
				return fmt.Errorf("framelog: the codec cannot carry %v's unexported field %s", t, f.Name)
			} else if err := walkType(f.Type, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("framelog: the codec cannot carry %v (kind %v)", t, t.Kind())
}

// unmarshal decodes payload, which must hold exactly one T.
func unmarshal[T any](payload []byte) (v T, err error) {
	rv := reflect.ValueOf(&v).Elem()
	if err := walkType(rv.Type(), 0); err != nil {
		return v, err
	}
	d := decoder{buf: payload}
	if d.value(rv); len(d.buf) > 0 {
		d.fail("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return *new(T), fmt.Errorf("framelog: decode %v: %w", rv.Type(), d.err)
	}
	return v, nil
}

func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = appendValue(b, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendValue(b, v.Field(i))
		}
	}
	return b
}

// decoder consumes buf from the front. Its first failure sticks and
// empties buf, so every read after it fails at once.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errPayload, fmt.Sprintf(format, args...))
	}
	d.buf = nil
}

// take consumes n bytes. Past the end it fails and returns eight zero
// bytes, enough for the fixed-size reads (bool, float64) to go on with.
func (d *decoder) take(n uint64) []byte {
	if n > uint64(len(d.buf)) {
		d.fail("input ends before %d more bytes", n)
		return make([]byte, 8)
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) uvarint() uint64 {
	u, n := binary.Uvarint(d.buf)
	if n <= 0 || n > 1 && d.buf[n-1] == 0 {
		d.fail("varint cut short, over 64 bits or not minimal")
		return 0
	}
	d.buf = d.buf[n:]
	return u
}

func (d *decoder) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		b := d.take(1)[0]
		if v.SetBool(b == 1); b > 1 {
			d.fail("bool byte %d", b)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u := d.uvarint()
		x := int64(u>>1) ^ -int64(u&1) // zig-zag, as binary.Varint
		if v.SetInt(x); v.Int() != x {
			d.fail("%d overflows %v", x, v.Type())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u := d.uvarint()
		if v.SetUint(u); v.Uint() != u {
			d.fail("%d overflows %v", u, v.Type())
		}
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.take(8))))
	case reflect.String:
		v.SetString(string(d.take(d.uvarint())))
	case reflect.Slice:
		// Every element takes at least a byte, so a length beyond the
		// bytes left is refused before anything is allocated for it.
		if n := d.uvarint(); n > uint64(len(d.buf)) {
			d.fail("%d elements cannot fit in the %d bytes left", n, len(d.buf))
		} else if n > 0 { // an empty slice stays nil
			v.Set(reflect.MakeSlice(v.Type(), int(n), int(n)))
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len() && d.err == nil; i++ {
			d.value(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField() && d.err == nil; i++ {
			d.value(v.Field(i))
		}
	}
}
