// Package network provides IPv4 primitives and the layer-3 topology model
// shared by the configuration parser, the symbolic encoder and the
// concrete simulator.
package network

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order: the natural representation for
// the encoder, which models the destination IP as a 32-bit bitvector.
type IP uint32

// ParseIP parses dotted-quad notation.
func ParseIP(s string) (IP, error) {
	var ip uint32
	rest := s
	for i := 0; i < 4; i++ {
		p := rest
		if dot := strings.IndexByte(rest, '.'); i < 3 && dot >= 0 {
			p, rest = rest[:dot], rest[dot+1:]
		} else if i < 3 || dot >= 0 {
			return 0, fmt.Errorf("network: invalid IPv4 address %q", s) // not four parts
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("network: invalid IPv4 address %q", s)
		}
		ip = ip<<8 | uint32(n)
	}
	return IP(ip), nil
}

// MustParseIP is ParseIP that panics on error, for constants in tests and
// generators.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String renders the address in dotted-quad notation.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	Addr IP
	Len  int
}

// ParsePrefix parses "a.b.c.d/len" notation. The address is canonicalized
// by masking off host bits.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("network: prefix %q missing /len", s)
	}
	ip, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	l, err := strconv.Atoi(s[slash+1:])
	if err != nil || l < 0 || l > 32 {
		return Prefix{}, fmt.Errorf("network: invalid prefix length in %q", s)
	}
	return Prefix{Addr: ip.Mask(l), Len: l}, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// PrefixFromMask builds a prefix from an address and a contiguous netmask
// (e.g. 255.255.255.0).
func PrefixFromMask(addr, netmask IP) (Prefix, error) {
	l, ok := MaskLen(netmask)
	if !ok {
		return Prefix{}, fmt.Errorf("network: non-contiguous netmask %v", netmask)
	}
	return Prefix{Addr: addr.Mask(l), Len: l}, nil
}

// MaskLen returns the prefix length of a contiguous netmask.
func MaskLen(netmask IP) (int, bool) {
	m := uint32(netmask)
	l := 0
	for l < 32 && m&0x80000000 != 0 {
		l++
		m <<= 1
	}
	return l, m == 0
}

// MaskOf returns the contiguous netmask for a prefix length.
func MaskOf(l int) IP {
	if l <= 0 {
		return 0
	}
	if l >= 32 {
		return 0xFFFFFFFF
	}
	return IP(^uint32(0) << (32 - l))
}

// WildcardLen returns the prefix length implied by a Cisco wildcard mask
// (the bitwise complement of a netmask), or ok=false if it is not a
// contiguous low-bit run.
func WildcardLen(wildcard IP) (int, bool) {
	return MaskLen(IP(^uint32(wildcard)))
}

// Mask returns the address with all but the first l bits cleared.
func (ip IP) Mask(l int) IP { return ip & MaskOf(l) }

// String renders CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%v/%d", p.Addr, p.Len) }

// Contains reports whether the prefix covers the address: the concrete
// FBM (first-bits-match) test from the paper.
func (p Prefix) Contains(ip IP) bool { return ip.Mask(p.Len) == p.Addr }

// Covers reports whether p covers every address of q.
func (p Prefix) Covers(q Prefix) bool {
	return p.Len <= q.Len && q.Addr.Mask(p.Len) == p.Addr
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool { return p.Covers(q) || q.Covers(p) }

// First returns the lowest address in the prefix.
func (p Prefix) First() IP { return p.Addr }

// Last returns the highest address in the prefix.
func (p Prefix) Last() IP {
	return p.Addr | IP(^uint32(MaskOf(p.Len)))
}

// IsDefault reports whether this is the default route 0.0.0.0/0.
func (p Prefix) IsDefault() bool { return p.Len == 0 }
