# Runs one bench with --quick and fails unless its stdout is byte-identical
# to the committed golden file:
#   cmake -DBENCH=<exe> -DGOLDEN=<file> -DOUT=<file> -P golden_diff.cmake
# The actual output is kept in OUT so a failure can be diffed by hand.
execute_process(COMMAND ${BENCH} --quick RESULT_VARIABLE code OUTPUT_FILE ${OUT})
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BENCH} --quick exited with ${code}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u ${GOLDEN} ${OUT} OUTPUT_VARIABLE delta ERROR_QUIET)
  message(FATAL_ERROR "stdout differs from ${GOLDEN} (actual: ${OUT}); regenerate "
                      "with tools/bench_stdout_diff.sh --write-goldens <build> if the "
                      "change is intended:\n${delta}")
endif()
