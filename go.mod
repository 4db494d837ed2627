module harmony

go 1.23
