package jsoncodec

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// safe marks the bytes encoding/json writes as themselves with HTML
// escaping on, its default: the ASCII bytes from space on but " \ < > &.
// extra is how many more bytes than one AppendString writes for each ASCII
// byte, and multibyte for the bytes that start or continue a multibyte
// sequence.
var safe, extra = func() (safe [256]bool, extra [256]uint8) {
	for c := 0; c < 256; c++ {
		safe[c] = ' ' <= c && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
		switch {
		case safe[c]:
		case c >= utf8.RuneSelf:
			extra[c] = multibyte
		case c == '"', c == '\\', c == '\b', c == '\f', c == '\n', c == '\r', c == '\t':
			extra[c] = 1
		default:
			extra[c] = uint8(len(`\u00XX`) - 1)
		}
	}
	return safe, extra
}()

const multibyte = 0xff

// AppendString writes s as a JSON string as encoding/json does: \" and
// \\, \b \f \n \r \t, other control bytes and < > & as \u00XX, U+2028 and
// U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8 as \ufffd.
// Each run of bytes between escapes is copied in one step.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if safe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// StringLen is the length AppendString writes for s, so that a caller can
// size its buffer before writing.
func StringLen(s string) int {
	n := len(`""`) + len(s)
	for i := 0; i < len(s); i++ {
		if e := extra[s[i]]; e != multibyte {
			n += int(e)
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			n += len(`\ufffd`) - 1
		case r == '\u2028' || r == '\u2029':
			n += len(`\u2028`) - size
		}
		i += size - 1
	}
	return n
}
