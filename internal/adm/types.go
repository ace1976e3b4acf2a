package adm

import (
	"fmt"
	"strings"
)

// Type describes an ADM Datatype: the a-priori information AsterixDB keeps
// about the data stored in a Dataset. A Type is either a primitive type, a
// record type (open or closed), or a collection type.
type Type interface {
	// TypeName returns the name under which the type is registered, or a
	// synthesized structural name for anonymous types.
	TypeName() string
	// TypeTag returns the tag of values conforming to this type.
	TypeTag() TypeTag
	// Describe renders the type in ADM DDL-like syntax.
	Describe() string
}

// PrimitiveType is a built-in scalar type such as int32 or datetime.
type PrimitiveType struct {
	Tag TypeTag
}

// TypeName implements Type.
func (p *PrimitiveType) TypeName() string { return p.Tag.String() }

// TypeTag implements Type.
func (p *PrimitiveType) TypeTag() TypeTag { return p.Tag }

// Describe implements Type.
func (p *PrimitiveType) Describe() string { return p.Tag.String() }

// AnyType matches any value; it is the type of open fields.
type AnyType struct{}

// TypeName implements Type.
func (*AnyType) TypeName() string { return "any" }

// TypeTag implements Type.
func (*AnyType) TypeTag() TypeTag { return TagAny }

// Describe implements Type.
func (*AnyType) Describe() string { return "any" }

// FieldType describes one declared field of a record type.
type FieldType struct {
	Name string
	Type Type
	// Optional marks the field with "?" in the DDL: it may be missing or
	// null, but when present must conform to Type.
	Optional bool
}

// RecordType is an ADM record Datatype. When Open is true, instances may
// carry additional, undeclared fields beyond the declared ones; when false
// (a "closed" type) instances must contain exactly the declared fields.
type RecordType struct {
	Name   string
	Open   bool
	Fields []FieldType
}

// TypeName implements Type.
func (r *RecordType) TypeName() string { return r.Name }

// TypeTag implements Type.
func (r *RecordType) TypeTag() TypeTag { return TagRecord }

// Describe implements Type.
func (r *RecordType) Describe() string {
	var sb strings.Builder
	if r.Open {
		sb.WriteString("open {\n")
	} else {
		sb.WriteString("closed {\n")
	}
	for _, f := range r.Fields {
		sb.WriteString("  ")
		sb.WriteString(f.Name)
		sb.WriteString(": ")
		sb.WriteString(f.Type.Describe())
		if f.Optional {
			sb.WriteString("?")
		}
		sb.WriteString(",\n")
	}
	sb.WriteString("}")
	return sb.String()
}

// Field returns the declared field with the given name, if any.
func (r *RecordType) Field(name string) (FieldType, bool) {
	for _, f := range r.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return FieldType{}, false
}

// FieldIndex returns the position of the declared field with the given name,
// or -1.
func (r *RecordType) FieldIndex(name string) int {
	for i, f := range r.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// OrderedListType is the type of an ordered list with a given item type.
type OrderedListType struct {
	Item Type
}

// TypeName implements Type.
func (l *OrderedListType) TypeName() string { return "[" + l.Item.TypeName() + "]" }

// TypeTag implements Type.
func (l *OrderedListType) TypeTag() TypeTag { return TagOrderedList }

// Describe implements Type.
func (l *OrderedListType) Describe() string { return "[" + l.Item.Describe() + "]" }

// UnorderedListType is the type of a bag with a given item type.
type UnorderedListType struct {
	Item Type
}

// TypeName implements Type.
func (l *UnorderedListType) TypeName() string { return "{{" + l.Item.TypeName() + "}}" }

// TypeTag implements Type.
func (l *UnorderedListType) TypeTag() TypeTag { return TagUnorderedList }

// Describe implements Type.
func (l *UnorderedListType) Describe() string { return "{{" + l.Item.Describe() + "}}" }

// Prim returns the shared PrimitiveType for a tag.
func Prim(tag TypeTag) *PrimitiveType { return &PrimitiveType{Tag: tag} }

// Any returns the shared AnyType.
func Any() *AnyType { return &AnyType{} }

// ----------------------------------------------------------------------------
// Validation (open vs. closed semantics)
// ----------------------------------------------------------------------------

// Validate checks that the value conforms to the type under ADM's open/closed
// rules:
//
//   - every declared, non-optional field must be present and conform;
//   - optional fields may be missing or null;
//   - closed record types reject undeclared fields;
//   - open record types accept any extra fields ("wiggle room").
func Validate(v Value, t Type) error {
	switch tt := t.(type) {
	case *AnyType:
		return nil
	case *PrimitiveType:
		return validatePrimitive(v, tt.Tag)
	case *RecordType:
		return validateRecord(v, tt)
	case *OrderedListType:
		list, ok := v.(*OrderedList)
		if !ok {
			return fmt.Errorf("adm: expected ordered list, got %s", v.Tag())
		}
		for i, item := range list.Items {
			if err := Validate(item, tt.Item); err != nil {
				return fmt.Errorf("adm: list item %d: %w", i, err)
			}
		}
		return nil
	case *UnorderedListType:
		list, ok := v.(*UnorderedList)
		if !ok {
			return fmt.Errorf("adm: expected unordered list, got %s", v.Tag())
		}
		for i, item := range list.Items {
			if err := Validate(item, tt.Item); err != nil {
				return fmt.Errorf("adm: bag item %d: %w", i, err)
			}
		}
		return nil
	}
	return fmt.Errorf("adm: unknown type %T", t)
}

func validatePrimitive(v Value, tag TypeTag) error {
	got := v.Tag()
	if got == tag {
		return nil
	}
	// Numeric promotion: an int32 literal is acceptable where int64 or double
	// is declared, and so on up the widening chain.
	if tag.IsNumeric() && got.IsNumeric() && numericWidth(got) <= numericWidth(tag) {
		return nil
	}
	return fmt.Errorf("adm: expected %s, got %s", tag, got)
}

func numericWidth(tag TypeTag) int {
	switch tag {
	case TagInt8:
		return 1
	case TagInt16:
		return 2
	case TagInt32:
		return 3
	case TagInt64:
		return 4
	case TagFloat:
		return 5
	case TagDouble:
		return 6
	}
	return 0
}

func validateRecord(v Value, rt *RecordType) error {
	rec, ok := v.(*Record)
	if !ok {
		return fmt.Errorf("adm: expected record of type %s, got %s", rt.Name, v.Tag())
	}
	for _, ft := range rt.Fields {
		fv := rec.Get(ft.Name)
		if IsUnknown(fv) {
			if ft.Optional {
				continue
			}
			return fmt.Errorf("adm: record of type %s is missing required field %q", rt.Name, ft.Name)
		}
		if err := Validate(fv, ft.Type); err != nil {
			return fmt.Errorf("adm: field %q: %w", ft.Name, err)
		}
	}
	if !rt.Open {
		for _, f := range rec.Fields {
			if _, declared := rt.Field(f.Name); !declared {
				return fmt.Errorf("adm: closed type %s does not allow field %q", rt.Name, f.Name)
			}
		}
	}
	return nil
}
