# One `greenvis_cli_rejects` ctest (tools/CMakeLists.txt): bad input must
# stop the CLI with exit status 1 and an error naming it.
#
#   cmake -DCLI=<greenvis> -DREGEX=<regex> [-DENV=<VAR=value>]
#         [-DFORBID=<regex>] -P tools/reject_check.cmake -- <greenvis args>
#
# Passes when `greenvis <args>` exits 1, its output (stdout and stderr)
# matches REGEX, and it shows neither a failed contract check nor a source
# location, which would mean an internal check caught the input instead of
# the CLI, nor a match of FORBID (e.g. output of work that should not have
# started).
cmake_minimum_required(VERSION 3.20)

set(args "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
string(JOIN " " shown ${args})

set(command "${CLI}" ${args})
if(ENV)
  set(command "${CMAKE_COMMAND}" -E env "${ENV}" ${command})
endif()
execute_process(COMMAND ${command} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)

set(problem "")
if(NOT rc EQUAL 1)
  set(problem "exit ${rc}, expected 1")
elseif(NOT out MATCHES "${REGEX}")
  set(problem "output does not match '${REGEX}'")
elseif(out MATCHES "(precondition|invariant) failed")
  set(problem "a contract check failed")
elseif(out MATCHES "\\.[ch]pp:[0-9]")
  set(problem "the output names a source location")
elseif(FORBID AND out MATCHES "${FORBID}")
  set(problem "the output matches '${FORBID}'")
endif()
if(problem)
  message(FATAL_ERROR "greenvis ${shown}: ${problem}\n${out}")
endif()
