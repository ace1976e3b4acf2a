module asterixdb/bench

go 1.24

require asterixdb v0.0.0

replace asterixdb => ../
