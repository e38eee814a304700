# Writes OUTPUT, a header that defines XRES_BUILD_ID as the source tree's
# `git describe --always --dirty` ("unknown" when SOURCE_DIR is not a git
# checkout or git is missing). The file is rewritten only when the id
# changes, so an unchanged checkout recompiles nothing.
#
#   cmake -DSOURCE_DIR=<dir> -DOUTPUT=<header> -P build_id.cmake

set(id "unknown")
find_program(XRES_GIT git)
if(XRES_GIT)
  execute_process(COMMAND "${XRES_GIT}" describe --always --dirty
    WORKING_DIRECTORY "${SOURCE_DIR}"
    OUTPUT_VARIABLE described
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE status)
  if(status EQUAL 0 AND NOT described STREQUAL "")
    set(id "${described}")
  endif()
endif()

set(content "#pragma once\n// Generated by src/study/build_id.cmake at build time.\n#define XRES_BUILD_ID \"${id}\"\n")
set(previous "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" previous)
endif()
if(NOT previous STREQUAL content)
  file(WRITE "${OUTPUT}" "${content}")
endif()
