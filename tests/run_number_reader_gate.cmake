# Grep gate for the one number reader: text becomes a number only through
# util::json::read_number (src/util/json.cpp), so a value means the same
# in a campaign file, an axis spec, an override, a CLI option and a
# contact trace.  The C/C++ conversion functions each accept their own
# dialect (hex, "nan", "inf", a leading '+' or whitespace, numeric
# prefixes), and every hand-rolled reader built on them has been a hole;
# this gate fails the moment one of them is named anywhere in src/ or
# tools/ outside src/util/json.cpp.
include(${CMAKE_CURRENT_LIST_DIR}/e2e.cmake)

set(conversions
    "strtod|strtof|strtold|stod|stof|stold|strtol|strtoll|strtoul|strtoull|stoi|stol|stoul|stoull|atof|atoi|atol")
file(GLOB_RECURSE sources
     "${SRC_DIR}/src/*.cpp" "${SRC_DIR}/src/*.hpp"
     "${SRC_DIR}/tools/*.cpp" "${SRC_DIR}/tools/*.hpp")
list(REMOVE_ITEM sources "${SRC_DIR}/src/util/json.cpp")
list(SORT sources)

# A whole identifier: not part of a longer name such as "strtods".
e2e_grep_gate("number-reader gate"
              PATTERN "(^|[^A-Za-z0-9_])(${conversions})([^A-Za-z0-9_]|$)"
              PROBE "  const double value = std::strtod(text.c_str(), nullptr)"
              FILES ${sources} MIN_FILES 10
              HINT "raw number conversion outside src/util/json.cpp; read \
numbers with util::json::read_number or util::spec (see docs/specs.md).")
