# Writes OUT, a header defining HG_GIT_REV as the short revision of the
# checkout at SOURCE_DIR ("unknown" outside a git checkout). Run at build
# time by the hg_git_rev target, so a rebuild after a new commit stamps the
# new revision. The file is rewritten only when its content changes: an
# unchanged revision recompiles nothing.
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE rev
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR rev STREQUAL "")
  set(rev "unknown")
endif()
set(content "// Generated by bench/git_rev.cmake; do not edit.\n#define HG_GIT_REV \"${rev}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUT}" "${content}")
endif()
