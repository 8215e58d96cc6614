# The envelope byte-stability contract, end to end on the real binaries:
# campaigns/ablation_frontier.json over {--jobs 1, 2} x {shards 0, 4}
# gives ONE envelope fit -- the fitter's group key folds every
# execution-layout axis -- so `gcs_report --envelope-json` is
# byte-identical across the grid, and so is the rendered --envelope
# section (the report's other sections echo the tree path and shards, so
# only the envelope section is held).
#
# The fit must then match the committed ENVELOPE_baseline.json under
# `gcs_diff --strict` (the CI gate, through the same file mode), a
# doctored copy must trip that gate naming the field, and mixing a file
# with a tree is a usage error.
include(${CMAKE_CURRENT_LIST_DIR}/e2e.cmake)

set(BASELINE "${SRC_DIR}/ENVELOPE_baseline.json")

# Each layout's fit lands in <tree>-fit/: envelope.json and the report's
# envelope section.
foreach(row "ref;1;0" "j2;2;0" "s4;1;4" "s4-j2;2;4")
  list(GET row 0 tree)
  list(GET row 1 jobs)
  list(GET row 2 shards)
  e2e_run(gcs_run --campaign "${SRC_DIR}/campaigns/ablation_frontier.json"
          --check --quiet --jobs ${jobs} --shards=${shards}
          --out "${OUT_DIR}/${tree}")
  file(MAKE_DIRECTORY "${OUT_DIR}/${tree}-fit")
  e2e_run(gcs_report "${OUT_DIR}/${tree}" --envelope
          --envelope-json "${OUT_DIR}/${tree}-fit/envelope.json"
          -o "${OUT_DIR}/${tree}.report.txt")
  file(READ "${OUT_DIR}/${tree}.report.txt" report)
  string(FIND "${report}" "empirical skew envelope" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no envelope section in ${tree}.report.txt:\n${report}")
  endif()
  string(SUBSTRING "${report}" ${at} -1 section)
  file(WRITE "${OUT_DIR}/${tree}-fit/section.txt" "${section}")
endforeach()
foreach(tree j2 s4 s4-j2)
  e2e_compare_trees("${OUT_DIR}/ref-fit" "${OUT_DIR}/${tree}-fit" MIN_FILES 2)
endforeach()

# Regenerate the baseline with scripts/regen_envelope.sh if the physics
# changed on purpose.
e2e_diff_gate("${BASELINE}" "${OUT_DIR}/ref-fit/envelope.json"
              FIELD envelope_ratio)
e2e_run(gcs_diff "${BASELINE}" "${OUT_DIR}/ref" --strict
        EXIT 2 STDERR "cannot compare a file with a tree")

message(STATUS "envelope stability: 4 {jobs} x {shards} layouts produced "
        "identical envelope artifacts; committed baseline gate holds and "
        "flags perturbations")
