# Runs a command and fails unless it exits with EXPECT_CODE and its combined
# stdout/stderr matches EXPECT_REGEX; with EXPECT_NO_FILE set, also unless
# that file is absent afterwards (it is removed first):
#   cmake -DEXPECT_CODE=2 -DEXPECT_REGEX=<regex> [-DEXPECT_NO_FILE=<path>]
#         -P cli_expect.cmake -- <cmd> [args...]
set(cmd)
set(in_cmd OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_cmd ON)
  endif()
endforeach()
if(EXPECT_NO_FILE)
  file(REMOVE "${EXPECT_NO_FILE}")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT "${code}" STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "exit status ${code}, expected ${EXPECT_CODE}; output:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "output does not match '${EXPECT_REGEX}':\n${out}")
endif()
if(EXPECT_NO_FILE AND EXISTS "${EXPECT_NO_FILE}")
  message(FATAL_ERROR "${EXPECT_NO_FILE} was written")
endif()
