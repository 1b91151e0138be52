// Package fieldcodec is the one binary encoding of the evaluation
// cache's value types: a field walker that visits every field of a value
// in declaration order and writes it in a fixed little-endian layout.
//
//   - Every integer, unsigned integer and float field is 8 bytes: ints
//     and uints as their 64-bit two's-complement value, floats as
//     math.Float64bits (so -0, +0 and every NaN payload stay distinct,
//     and a round trip is bit-exact). Bools are 8 bytes, 0 or 1.
//   - A string is its length as 8 bytes followed by its bytes.
//   - Structs and arrays are their fields or elements in order, with no
//     framing: the layout is fixed by the Go type, so the encoding of a
//     value of a given type is prefix-free and two values of that type
//     encode equal exactly when every field is equal.
//
// The cache key's preimage (internal/evalengine) and the persistent
// record body (internal/evalstore) both use it, so a field added later to
// any struct they cover is hashed and stored without touching either. A
// kind the layout has no rule for (pointer, slice, map, ...) panics on
// first use: such a field has no canonical value-type encoding and must
// be designed in deliberately.
package fieldcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
)

// ErrShort reports a value that needs more bytes than remain.
var ErrShort = errors.New("fieldcodec: short input")

// Append appends the encoding of the value v points to. v must be a
// non-nil pointer; passing a pointer keeps large structs from being
// copied into an interface.
func Append(dst []byte, v any) []byte {
	return appendValue(dst, reflect.ValueOf(v).Elem())
}

func appendValue(dst []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.LittleEndian.AppendUint64(dst, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case reflect.Bool:
		var b uint64
		if v.Bool() {
			b = 1
		}
		return binary.LittleEndian.AppendUint64(dst, b)
	case reflect.String:
		s := v.String()
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(s)))
		return append(dst, s...)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dst = appendValue(dst, v.Field(i))
		}
		return dst
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			dst = appendValue(dst, v.Index(i))
		}
		return dst
	}
	panic(fmt.Sprintf("fieldcodec: %s has no binary layout", v.Type()))
}

// Decode fills the value v points to from the front of b and returns the
// bytes after it. It accepts exactly the encodings Append produces: an
// input that is short, holds a bool other than 0 or 1, or holds a number
// its field cannot represent is an error. The only allocation is a
// string field's bytes, and a string never claims more bytes than remain,
// so decoding never allocates beyond the input's length.
func Decode(b []byte, v any) ([]byte, error) {
	return decodeValue(b, reflect.ValueOf(v).Elem())
}

func decodeValue(b []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Struct:
		var err error
		for i := 0; i < v.NumField() && err == nil; i++ {
			b, err = decodeValue(b, v.Field(i))
		}
		return b, err
	case reflect.Array:
		var err error
		for i := 0; i < v.Len() && err == nil; i++ {
			b, err = decodeValue(b, v.Index(i))
		}
		return b, err
	}
	if len(b) < 8 {
		return b, ErrShort
	}
	x, b := binary.LittleEndian.Uint64(b), b[8:]
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.OverflowInt(int64(x)) {
			return b, fmt.Errorf("fieldcodec: %d overflows %s", int64(x), v.Type())
		}
		v.SetInt(int64(x))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if v.OverflowUint(x) {
			return b, fmt.Errorf("fieldcodec: %d overflows %s", x, v.Type())
		}
		v.SetUint(x)
	case reflect.Float32, reflect.Float64:
		f := math.Float64frombits(x)
		v.SetFloat(f)
		if math.Float64bits(v.Float()) != x {
			return b, fmt.Errorf("fieldcodec: %#x is not exact in %s", x, v.Type())
		}
	case reflect.Bool:
		if x > 1 {
			return b, fmt.Errorf("fieldcodec: bool %d", x)
		}
		v.SetBool(x == 1)
	case reflect.String:
		if x > uint64(len(b)) {
			return b, ErrShort
		}
		v.SetString(string(b[:x]))
		b = b[x:]
	default:
		panic(fmt.Sprintf("fieldcodec: %s has no binary layout", v.Type()))
	}
	return b, nil
}
