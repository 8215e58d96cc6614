# The steps every end-to-end CTest repeats, for the scripts that
# gcs_tool_test() in the top-level CMakeLists.txt declares.  A script
# includes this file first: it checks the -D inputs and empties OUT_DIR.
#
#   e2e_run(<tool> <args>... [EXIT <code>|nonzero] [STDERR <regex>]
#           [OUTPUT <regex>] [WORKING_DIRECTORY <dir>] [TIMEOUT <seconds>])
#       Runs gcs_run, gcs_diff or gcs_report (default cwd: OUT_DIR) and
#       asserts its exit code (default 0), its stderr and its stdout plus
#       stderr (a cell that errors is reported on stdout); leaves the
#       output in e2e_stdout / e2e_stderr.
#   e2e_compare_trees(<a> <b> MIN_FILES <n> [ECHO <regex>])
#       Holds tree <b> to tree <a>: the same file set of at least <n>
#       files, series and trace files byte-exact, every other file exact
#       once each match of the declared echo regex reads "X" on both
#       sides.
#   e2e_doctor(<src> <dst> <field> [<value>])
#       Copies a tree or file and rewrites "<field>": in it (the first
#       cells/*.json of a tree) to <value>, default 987654321; leaves the
#       rewritten file in e2e_victim.
#   e2e_diff_gate(<a> <b> FIELD <field> [ARGS <gcs_diff args>...])
#       gcs_diff <a> <b> --strict must exit 0, and exit 1 naming <field>
#       against a doctored copy of <b>.
#   e2e_grep_gate(<what> PATTERN <regex> PROBE <line> FILES <paths>...
#                 [MIN_FILES <n>] [HINT <text>])
#       No line of the files may match the pattern.
#
# A gate that cannot fire is not a gate, so each comparison and gate
# shows that it can fail: e2e_compare_trees flips the first byte of a
# file of each class in a scratch copy, once per run and echo, and must
# name exactly those files; e2e_diff_gate's doctored copy runs on every
# call; e2e_grep_gate adds the PROBE line to a scratch copy of its first
# file and must report exactly that line.
#
# Inputs (-D): SRC_DIR (the repo root), OUT_DIR (scratch, emptied here),
# and GCS_RUN, GCS_DIFF, GCS_REPORT (checked when a script first runs
# the tool).

foreach(var SRC_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${CMAKE_SCRIPT_MODE_FILE}: -D${var}=... is required")
  endif()
endforeach()
if(NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "SRC_DIR is not a directory: '${SRC_DIR}'")
endif()
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

function(e2e_run tool)
  cmake_parse_arguments(PARSE_ARGV 1 run ""
                        "EXIT;STDERR;OUTPUT;WORKING_DIRECTORY;TIMEOUT" "")
  string(TOUPPER "${tool}" var)
  if(NOT EXISTS "${${var}}")
    message(FATAL_ERROR "${tool} binary not found: '${${var}}' (-D${var}=...)")
  endif()
  if(NOT DEFINED run_EXIT)
    set(run_EXIT 0)
  endif()
  if(NOT run_WORKING_DIRECTORY)
    set(run_WORKING_DIRECTORY "${OUT_DIR}")
  endif()
  set(timeout "")
  if(run_TIMEOUT)
    set(timeout TIMEOUT ${run_TIMEOUT})
  endif()
  execute_process(
    COMMAND "${${var}}" ${run_UNPARSED_ARGUMENTS}
    WORKING_DIRECTORY "${run_WORKING_DIRECTORY}" ${timeout}
    RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  # A timeout leaves rc non-numeric, so it never passes as "nonzero".
  if(run_EXIT STREQUAL "nonzero")
    string(REGEX MATCH "^[1-9][0-9]*$" rc_ok "${rc}")
  elseif(rc STREQUAL run_EXIT)
    set(rc_ok TRUE)
  else()
    set(rc_ok "")
  endif()
  if(NOT rc_ok OR (DEFINED run_STDERR AND NOT stderr MATCHES "${run_STDERR}")
     OR (DEFINED run_OUTPUT AND NOT "${stdout}${stderr}" MATCHES "${run_OUTPUT}"))
    string(REPLACE ";" " " args "${run_UNPARSED_ARGUMENTS}")
    message(FATAL_ERROR "${tool} ${args}\nexited ${rc}, wanted ${run_EXIT}"
            " with stderr matching '${run_STDERR}' and output matching "
            "'${run_OUTPUT}'\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  set(e2e_stdout "${stdout}" PARENT_SCOPE)
  set(e2e_stderr "${stderr}" PARENT_SCOPE)
endfunction()

# Series and trace files are pure trajectory bytes: never normalized.
function(_e2e_is_trajectory file out_var)
  if(file MATCHES "\\.(series\\.csv|trace\\.jsonl)$")
    set(${out_var} TRUE PARENT_SCOPE)
  else()
    set(${out_var} FALSE PARENT_SCOPE)
  endif()
endfunction()

# Lists in <out_var> every file that is missing from either tree or
# differs under the comparison rules of e2e_compare_trees.
function(_e2e_tree_diff a b echo out_var)
  file(GLOB_RECURSE a_files RELATIVE "${a}" "${a}/*")
  file(GLOB_RECURSE b_files RELATIVE "${b}" "${b}/*")
  set(files ${a_files} ${b_files})
  list(REMOVE_DUPLICATES files)
  list(SORT files)
  set(diffs "")
  foreach(f IN LISTS files)
    _e2e_is_trajectory("${f}" exact)
    if(NOT EXISTS "${a}/${f}" OR NOT EXISTS "${b}/${f}")
      list(APPEND diffs "${f} (missing on one side)")
    elseif(exact OR echo STREQUAL "")
      execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                              "${a}/${f}" "${b}/${f}"
                      RESULT_VARIABLE cmp)
      if(NOT cmp EQUAL 0)
        list(APPEND diffs "${f}")
      endif()
    else()
      file(READ "${a}/${f}" want)
      file(READ "${b}/${f}" got)
      string(REGEX REPLACE "${echo}" "X" want "${want}")
      string(REGEX REPLACE "${echo}" "X" got "${got}")
      if(NOT want STREQUAL got)
        list(APPEND diffs "${f}")
      endif()
    endif()
  endforeach()
  set(${out_var} "${diffs}" PARENT_SCOPE)
endfunction()

function(_e2e_flip_first_byte path)
  file(READ "${path}" text)
  string(SUBSTRING "${text}" 0 1 first)
  string(SUBSTRING "${text}" 1 -1 rest)
  if(first STREQUAL "#")
    set(first "!")
  else()
    set(first "#")
  endif()
  file(WRITE "${path}" "${first}${rest}")
endfunction()

function(e2e_compare_trees a b)
  cmake_parse_arguments(PARSE_ARGV 2 cmp "" "MIN_FILES;ECHO" "")
  file(GLOB_RECURSE files RELATIVE "${a}" "${a}/*")
  list(SORT files)
  list(LENGTH files count)
  if(count LESS cmp_MIN_FILES)
    message(FATAL_ERROR "suspiciously small tree ${a}: ${count} files, "
            "wanted >= ${cmp_MIN_FILES}: ${files}")
  endif()
  _e2e_tree_diff("${a}" "${b}" "${cmp_ECHO}" diffs)
  if(NOT diffs STREQUAL "")
    string(REPLACE ";" "\n  " diffs "${diffs}")
    message(FATAL_ERROR "${b} differs from ${a} beyond the declared echo "
            "'${cmp_ECHO}' in:\n  ${diffs}")
  endif()

  string(MD5 key "${cmp_ECHO}")
  get_property(proven GLOBAL PROPERTY e2e_compare_proven_${key})
  if(proven)
    return()
  endif()
  set_property(GLOBAL PROPERTY e2e_compare_proven_${key} TRUE)
  set(probe "${OUT_DIR}/probe-compare")
  file(REMOVE_RECURSE "${probe}")
  file(COPY "${b}/" DESTINATION "${probe}")
  set(victims "")
  foreach(want_exact TRUE FALSE)
    foreach(f IN LISTS files)
      _e2e_is_trajectory("${f}" exact)
      if(exact STREQUAL want_exact)
        _e2e_flip_first_byte("${probe}/${f}")
        list(APPEND victims "${f}")
        break()
      endif()
    endforeach()
  endforeach()
  list(SORT victims)
  _e2e_tree_diff("${a}" "${probe}" "${cmp_ECHO}" caught)
  if(NOT caught STREQUAL victims)
    message(FATAL_ERROR "the tree comparison cannot fail: a copy of ${b} "
            "with the first byte of ${victims} flipped reported '${caught}'")
  endif()
  file(REMOVE_RECURSE "${probe}")
endfunction()

function(e2e_doctor src dst field)
  set(value 987654321)
  if(ARGC GREATER 3)
    set(value "${ARGV3}")
  endif()
  file(REMOVE_RECURSE "${dst}")
  if(IS_DIRECTORY "${src}")
    file(COPY "${src}/" DESTINATION "${dst}")
    file(GLOB cells "${dst}/cells/*.json")
    list(SORT cells)
    list(GET cells 0 victim)
  else()
    file(COPY_FILE "${src}" "${dst}")
    set(victim "${dst}")
  endif()
  file(READ "${victim}" text)
  string(REGEX REPLACE "\"${field}\": [^,\n]+" "\"${field}\": ${value}"
         doctored "${text}")
  if(doctored STREQUAL text)
    message(FATAL_ERROR "cannot doctor ${victim}: no \"${field}\" field "
            "other than ${value}")
  endif()
  file(WRITE "${victim}" "${doctored}")
  set(e2e_victim "${victim}" PARENT_SCOPE)
endfunction()

function(e2e_diff_gate a b)
  cmake_parse_arguments(PARSE_ARGV 2 gate "" "FIELD" "ARGS")
  e2e_run(gcs_diff "${a}" "${b}" --strict ${gate_ARGS})
  get_filename_component(name "${b}" NAME)
  set(doctored "${OUT_DIR}/doctored-${name}")
  e2e_doctor("${b}" "${doctored}" ${gate_FIELD})
  e2e_run(gcs_diff "${a}" "${doctored}" --strict ${gate_ARGS} EXIT 1)
  if(NOT e2e_stdout MATCHES "${gate_FIELD}")
    message(FATAL_ERROR "gcs_diff did not name the doctored field "
            "${gate_FIELD}:\n${e2e_stdout}")
  endif()
  file(REMOVE_RECURSE "${doctored}")
endfunction()

# Lists "<path>: <line>" in <out_var> for every line of the files that
# matches <pattern>.
function(_e2e_grep pattern out_var)
  set(hits "")
  foreach(path IN LISTS ARGN)
    file(STRINGS "${path}" lines REGEX "${pattern}")
    foreach(line IN LISTS lines)
      list(APPEND hits "${path}: ${line}")
    endforeach()
  endforeach()
  set(${out_var} "${hits}" PARENT_SCOPE)
endfunction()

function(e2e_grep_gate what)
  cmake_parse_arguments(PARSE_ARGV 1 gate "" "PATTERN;PROBE;MIN_FILES;HINT"
                        "FILES")
  if(NOT DEFINED gate_MIN_FILES)
    set(gate_MIN_FILES 1)
  endif()
  list(LENGTH gate_FILES count)
  if(count LESS gate_MIN_FILES)
    message(FATAL_ERROR "${what}: ${count} files to search, wanted >= "
            "${gate_MIN_FILES}: ${gate_FILES}")
  endif()
  foreach(path IN LISTS gate_FILES)
    if(NOT EXISTS "${path}")
      message(FATAL_ERROR "${what}: expected file is missing: ${path}")
    endif()
  endforeach()
  _e2e_grep("${gate_PATTERN}" hits ${gate_FILES})
  if(NOT hits STREQUAL "")
    string(REPLACE ";" "\n" hits "${hits}")
    message(FATAL_ERROR "${what}: ${gate_HINT}  Found:\n${hits}")
  endif()

  list(GET gate_FILES 0 first)
  get_filename_component(name "${first}" NAME)
  set(probe "${OUT_DIR}/probe-grep/${name}")
  file(READ "${first}" text)
  file(WRITE "${probe}" "${text}\n${gate_PROBE}\n")
  _e2e_grep("${gate_PATTERN}" caught "${probe}")
  if(NOT caught STREQUAL "${probe}: ${gate_PROBE}")
    message(FATAL_ERROR "${what} cannot fail: a copy of ${first} plus the "
            "line '${gate_PROBE}' reported '${caught}'")
  endif()
  file(REMOVE_RECURSE "${OUT_DIR}/probe-grep")
  message(STATUS "${what}: ${count} files clean")
endfunction()
