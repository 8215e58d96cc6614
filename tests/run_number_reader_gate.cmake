# Grep gate for the one number reader: text becomes a number only through
# util::json::read_number (src/util/json.cpp), so a value means the same
# in a campaign file, an axis spec, an override, a CLI option and a
# contact trace.  The C/C++ conversion functions each accept their own
# dialect (hex, "nan", "inf", a leading '+' or whitespace, numeric
# prefixes), and every hand-rolled reader built on them has been a hole;
# this script fails the moment one of them is named anywhere in src/ or
# tools/ outside src/util/json.cpp.
#
# Invoked in script mode by CTest with:
#   -DSRC_DIR=<repo root>

if(NOT DEFINED SRC_DIR)
  message(FATAL_ERROR "run_number_reader_gate.cmake: -DSRC_DIR=... is required")
endif()

set(conversions
    "strtod|strtof|strtold|stod|stof|stold|strtol|strtoll|strtoul|strtoull|stoi|stol|stoul|stoull|atof|atoi|atol")
# A whole identifier: not part of a longer name such as "strtods".
set(pattern "(^|[^A-Za-z0-9_])(${conversions})([^A-Za-z0-9_]|$)")

file(GLOB_RECURSE sources
     "${SRC_DIR}/src/*.cpp" "${SRC_DIR}/src/*.hpp"
     "${SRC_DIR}/tools/*.cpp" "${SRC_DIR}/tools/*.hpp")
list(LENGTH sources count)
if(count LESS 10)
  message(FATAL_ERROR "number-reader gate: found only ${count} sources "
          "under ${SRC_DIR}/src and ${SRC_DIR}/tools")
endif()

set(violations "")
foreach(path ${sources})
  if(path STREQUAL "${SRC_DIR}/src/util/json.cpp")
    continue()
  endif()
  file(STRINGS "${path}" matches REGEX "${pattern}")
  foreach(line ${matches})
    list(APPEND violations "${path}: ${line}")
  endforeach()
endforeach()

if(NOT violations STREQUAL "")
  string(REPLACE ";" "\n" violations "${violations}")
  message(FATAL_ERROR
          "raw number conversion outside src/util/json.cpp; read numbers "
          "with util::json::read_number or util::spec (see docs/specs.md).  "
          "Found:\n${violations}")
endif()

message(STATUS "number-reader gate: ${count} sources, raw number conversion "
        "only in src/util/json.cpp")
