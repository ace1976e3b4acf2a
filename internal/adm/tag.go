// Package adm implements the Asterix Data Model (ADM): a superset of JSON
// extended with a richer set of primitive types (datetime, date, time,
// duration, interval, point, line, rectangle, circle, polygon, ...), bags
// (unordered lists), and a schema language with open and closed record types.
//
// The package provides the value representation used throughout the engine,
// the Datatype system (open vs. closed record types, optional fields), value
// validation against Datatypes, total-order comparison and index keys, the ADM
// text parser and printer, and two binary record encodings:
//
//   - Schema encoding: fields declared in the Datatype are stored positionally
//     (field names live in type metadata, not in each instance); undeclared
//     fields follow self-describing.
//   - Self-describing encoding: every field is stored with its name and a
//     tagged value; open fields and nested values use it.
//
// Storage uses the schema encoding. The "Asterix (Schema)" and "Asterix
// (KeyOnly)" configurations measured in Table 2 and Table 3 of the paper
// differ in their Datatype: KeyOnly is an open type that declares only the
// primary key, so every other field is stored self-describing.
package adm

import "fmt"

// TypeTag identifies the dynamic type of an ADM value or the tag of a Datatype.
type TypeTag uint8

// ADM type tags. The numeric values are part of the binary serialization
// format and must not be reordered.
const (
	TagMissing TypeTag = iota
	TagNull
	TagBoolean
	TagInt8
	TagInt16
	TagInt32
	TagInt64
	TagFloat
	TagDouble
	TagString
	TagBinary
	TagUUID
	TagDate
	TagTime
	TagDatetime
	TagDuration
	TagYearMonthDuration
	TagDayTimeDuration
	TagInterval
	TagPoint
	TagLine
	TagRectangle
	TagCircle
	TagPolygon
	TagRecord
	TagOrderedList
	TagUnorderedList
	TagAny // used only in Datatypes, never as a value tag
)

var tagNames = map[TypeTag]string{
	TagMissing:           "missing",
	TagNull:              "null",
	TagBoolean:           "boolean",
	TagInt8:              "int8",
	TagInt16:             "int16",
	TagInt32:             "int32",
	TagInt64:             "int64",
	TagFloat:             "float",
	TagDouble:            "double",
	TagString:            "string",
	TagBinary:            "binary",
	TagUUID:              "uuid",
	TagDate:              "date",
	TagTime:              "time",
	TagDatetime:          "datetime",
	TagDuration:          "duration",
	TagYearMonthDuration: "year-month-duration",
	TagDayTimeDuration:   "day-time-duration",
	TagInterval:          "interval",
	TagPoint:             "point",
	TagLine:              "line",
	TagRectangle:         "rectangle",
	TagCircle:            "circle",
	TagPolygon:           "polygon",
	TagRecord:            "record",
	TagOrderedList:       "ordered-list",
	TagUnorderedList:     "unordered-list",
	TagAny:               "any",
}

// String returns the ADM name of the tag (e.g. "int32", "datetime").
func (t TypeTag) String() string {
	if s, ok := tagNames[t]; ok {
		return s
	}
	return fmt.Sprintf("unknown-tag(%d)", uint8(t))
}

// IsNumeric reports whether values of this tag participate in numeric
// promotion (int8..int64, float, double).
func (t TypeTag) IsNumeric() bool {
	switch t {
	case TagInt8, TagInt16, TagInt32, TagInt64, TagFloat, TagDouble:
		return true
	}
	return false
}

// IsTemporal reports whether the tag is one of the date/time family.
func (t TypeTag) IsTemporal() bool {
	switch t {
	case TagDate, TagTime, TagDatetime, TagDuration, TagYearMonthDuration, TagDayTimeDuration, TagInterval:
		return true
	}
	return false
}

// IsSpatial reports whether the tag is one of the geometry family.
func (t TypeTag) IsSpatial() bool {
	switch t {
	case TagPoint, TagLine, TagRectangle, TagCircle, TagPolygon:
		return true
	}
	return false
}

// IsCollection reports whether the tag is an ordered or unordered list.
func (t TypeTag) IsCollection() bool {
	return t == TagOrderedList || t == TagUnorderedList
}

// TagFromTypeName maps an ADM type name used in DDL (e.g. "int32", "string",
// "point") to its tag. The boolean result is false for unknown names and for
// the structural names ("record", lists) which require a full type definition.
func TagFromTypeName(name string) (TypeTag, bool) {
	switch name {
	case "boolean":
		return TagBoolean, true
	case "int8", "tinyint":
		return TagInt8, true
	case "int16", "smallint":
		return TagInt16, true
	case "int32", "int", "integer":
		return TagInt32, true
	case "int64", "bigint":
		return TagInt64, true
	case "float":
		return TagFloat, true
	case "double":
		return TagDouble, true
	case "string":
		return TagString, true
	case "binary":
		return TagBinary, true
	case "uuid":
		return TagUUID, true
	case "date":
		return TagDate, true
	case "time":
		return TagTime, true
	case "datetime":
		return TagDatetime, true
	case "duration":
		return TagDuration, true
	case "year-month-duration":
		return TagYearMonthDuration, true
	case "day-time-duration":
		return TagDayTimeDuration, true
	case "interval":
		return TagInterval, true
	case "point":
		return TagPoint, true
	case "line":
		return TagLine, true
	case "rectangle":
		return TagRectangle, true
	case "circle":
		return TagCircle, true
	case "polygon":
		return TagPolygon, true
	case "any":
		return TagAny, true
	}
	return TagMissing, false
}
